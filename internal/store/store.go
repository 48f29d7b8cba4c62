// Package store is the fleet's memory: a crash-safe, append-only,
// content-addressed archive of every completed result document. The
// simulation layers compute; this package remembers — so regression
// gating can compare HEAD against a rolling history instead of three
// hand-pinned snapshots, and a trend query can answer "when did this
// metric move, and at which run?".
//
// The design is a segmented record log (see segment.go for the exact
// framing): appends go to the active segment and are fsynced before
// they are acknowledged, an in-memory index is rebuilt by scanning the
// segments on open, a torn tail left by a crash is truncated on reopen,
// and compaction rewrites sealed segments through an atomic rename so
// readers — who run concurrently with both appends and compaction —
// never observe a half-written file. Records are keyed by the result's
// content address (bench.CanonicalKey) plus submission metadata:
// experiment, schemes, thread counts, schema version, VCS commit,
// wall-clock, and a store-assigned sequence number that totally orders
// history.
package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// RecordMeta is one archived run's submission metadata. Everything here
// is *about* the run — none of it participates in the result's content
// address, so archiving never perturbs cache keys or byte-identity.
type RecordMeta struct {
	// Seq is the store-assigned sequence number: dense, monotonically
	// increasing, never reused. It totally orders history.
	Seq uint64 `json:"seq"`
	// Key is the result's content address (bench.CanonicalKey family);
	// empty when the source had none (imports of hand-made documents).
	Key string `json:"key,omitempty"`
	// Experiment is the archived document's experiment ID (comma-joined
	// when one document holds several).
	Experiment string `json:"experiment,omitempty"`
	// Schemes and Threads summarize the document's point axes, so
	// history queries can filter without parsing every payload.
	Schemes []string `json:"schemes,omitempty"`
	Threads []int    `json:"threads,omitempty"`
	// Schema is the result document's schema version.
	Schema int `json:"schema"`
	// Commit and GoVersion identify the build that produced the run.
	Commit    string `json:"commit,omitempty"`
	GoVersion string `json:"go,omitempty"`
	// UnixMs is the archive wall-clock time (stamped on Append when 0).
	UnixMs int64 `json:"unix_ms"`
	// DurationMs is the run's wall-clock cost, when the source knew it.
	DurationMs float64 `json:"duration_ms,omitempty"`
	// Source says who archived: "stserved", "stctl", or "import".
	Source string `json:"source,omitempty"`
	// Workers is the fleet size for distributed (stctl) runs.
	Workers int `json:"workers,omitempty"`
}

// Retention bounds what compaction keeps. The zero value keeps
// everything.
type Retention struct {
	// PerExperiment keeps only the most recent N records per experiment
	// (0 = unbounded).
	PerExperiment int
	// MaxBytes drops the oldest sealed records until the live footprint
	// fits (0 = unbounded). Records in the active segment never drop.
	MaxBytes int64
}

// Options shape a Store.
type Options struct {
	// SegmentBytes is the rotation threshold (default 4 MiB).
	SegmentBytes int64
	// Retain is the compaction retention policy.
	Retain Retention
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Stats is a point-in-time snapshot of the store.
type Stats struct {
	Records  int    `json:"records"`
	Segments int    `json:"segments"`
	Bytes    int64  `json:"bytes"` // live record footprint incl. headers
	LastSeq  uint64 `json:"last_seq"`
	// Appends counts acknowledged appends this process; AppendErrors the
	// refused ones (I/O failures — the record was not acknowledged).
	Appends      uint64 `json:"appends,omitempty"`
	AppendErrors uint64 `json:"append_errors,omitempty"`
	Compactions  uint64 `json:"compactions,omitempty"`
	// TornBytes is what torn-tail truncation dropped on the last open —
	// the unacknowledged remainder of a crashed append.
	TornBytes int64 `json:"torn_bytes,omitempty"`
	// StaleDropped counts records skipped on open because an interrupted
	// compaction left their pre-compaction segments behind.
	StaleDropped int `json:"stale_dropped,omitempty"`
}

// Store is the archive. Safe for concurrent use: appends serialize,
// reads run concurrently with appends and with compaction.
type Store struct {
	dir  string
	opts Options

	mu        sync.RWMutex
	segs      []*segment // ascending id; the last is the active segment
	recs      []*record  // live records, ascending seq
	byKey     map[string][]*record
	lastSeq   uint64
	liveBytes int64

	compactMu sync.Mutex // at most one compaction at a time
	lock      *os.File   // holds the directory lock; nil once closed

	appends, appendErrors, compactions uint64
	tornBytes                          int64
	staleDropped                       int
}

// Open opens (or creates) the store in dir, rebuilding the index by
// scanning every segment. A torn tail on the active segment — the
// signature of a crash mid-append — is truncated; a bad frame anywhere
// else is ErrCorrupt. The store is single-writer: Open takes an
// exclusive lock on the directory, held until Close, so a second Open
// of the same directory (in this process or another) fails instead of
// compacting under a live writer.
func Open(dir string, opts Options) (_ *Store, err error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts.withDefaults(), byKey: map[string][]*record{}, lock: lock}
	defer func() {
		if err != nil {
			s.closeLocked() // closes the segments opened so far, releases the lock
		}
	}()
	ids, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		seg, err := openSegment(segmentPath(dir, id), id)
		if err != nil {
			return nil, err
		}
		res, err := scanSegment(seg)
		if err != nil {
			seg.f.Close()
			return nil, err
		}
		last := i == len(ids)-1
		if res.torn > 0 {
			if !last {
				seg.f.Close()
				return nil, fmt.Errorf("%w: %s: bad frame %d bytes before EOF in a sealed segment",
					ErrCorrupt, seg.path, res.torn)
			}
			// Crash mid-append: the tail was never acknowledged. Drop it.
			if err := seg.f.Truncate(res.tornOff); err != nil {
				seg.f.Close()
				return nil, fmt.Errorf("store: truncate torn tail of %s: %w", seg.path, err)
			}
			if err := seg.f.Sync(); err != nil {
				seg.f.Close()
				return nil, err
			}
			seg.size = res.tornOff
			s.tornBytes += res.torn
		}
		live := 0
		for _, r := range res.records {
			// A record at or below the running maximum is a stale
			// duplicate: an interrupted compaction already rewrote it
			// (or covered its retention-dropped corpse) into a
			// lower-numbered segment.
			if r.meta.Seq <= s.lastSeq {
				s.staleDropped++
				continue
			}
			s.indexLocked(r)
			live++
		}
		if seg.cover > s.lastSeq {
			s.lastSeq = seg.cover
		}
		seg.records = live
		if live == 0 && !last && seg.cover == 0 {
			// Fully stale pre-compaction leftover: finish the interrupted
			// cleanup now rather than rescanning it forever.
			seg.f.Close()
			os.Remove(seg.path)
			continue
		}
		s.segs = append(s.segs, seg)
	}
	if len(s.segs) == 0 {
		seg, err := createSegment(dir, 1, 0)
		if err != nil {
			return nil, err
		}
		s.segs = []*segment{seg}
	}
	return s, nil
}

// indexLocked adds r to the in-memory index; s.mu (or exclusivity
// during Open) held.
func (s *Store) indexLocked(r *record) {
	s.recs = append(s.recs, r)
	if r.meta.Key != "" {
		s.byKey[r.meta.Key] = append(s.byKey[r.meta.Key], r)
	}
	if r.meta.Seq > s.lastSeq {
		s.lastSeq = r.meta.Seq
	}
	s.liveBytes += r.frameLen()
}

// Append archives one result document. The meta's Seq is assigned by
// the store; UnixMs is stamped when zero. The record is fsynced before
// Append returns — an acknowledged append survives kill -9.
func (s *Store) Append(meta RecordMeta, payload []byte) (RecordMeta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.segs == nil {
		return RecordMeta{}, fmt.Errorf("store: closed")
	}
	if s.lastSeq == math.MaxUint64 {
		// Only a damaged coverUpTo header gets here; wrapping to 0 would
		// make the record stale (and dropped) on the next open.
		s.appendErrors++
		return RecordMeta{}, fmt.Errorf("store: sequence numbers exhausted")
	}
	meta.Seq = s.lastSeq + 1
	if meta.UnixMs == 0 {
		meta.UnixMs = time.Now().UnixMilli()
	}
	frame, err := encodeRecord(meta, payload)
	if err != nil {
		s.appendErrors++
		return RecordMeta{}, err
	}
	active := s.segs[len(s.segs)-1]
	off := active.size
	if _, err := active.f.WriteAt(frame, off); err != nil {
		// The write may have landed partially; roll the file back so the
		// in-memory view and the disk agree. If even that fails, the next
		// open's torn-tail scan cleans up.
		active.f.Truncate(off)
		s.appendErrors++
		return RecordMeta{}, fmt.Errorf("store: append: %w", err)
	}
	if err := active.f.Sync(); err != nil {
		active.f.Truncate(off)
		s.appendErrors++
		return RecordMeta{}, fmt.Errorf("store: append sync: %w", err)
	}
	active.size = off + int64(len(frame))
	r := &record{meta: meta, seg: active, off: off, bodyLen: uint32(len(frame) - recHeaderLen),
		crc: binary.LittleEndian.Uint32(frame[4:])}
	s.indexLocked(r)
	active.records++
	s.appends++

	if active.size >= s.opts.SegmentBytes {
		if seg, err := createSegment(s.dir, active.id+1, 0); err == nil {
			s.segs = append(s.segs, seg)
		}
		// A failed rotation is not a failed append: the active segment
		// simply keeps growing until rotation succeeds.
	}
	return meta, nil
}

// Lookup returns the CRC-verified payload of the newest live record
// archived under the content address key. ok is false when no record
// carries the key; err reports one that does but cannot be read (I/O
// failure or CRC mismatch).
func (s *Store) Lookup(key string) (payload []byte, ok bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs := s.byKey[key]
	if len(rs) == 0 {
		return nil, false, nil
	}
	b, err := rs[len(rs)-1].payload()
	return b, err == nil, err
}

// Get returns the record with the given sequence number and its
// CRC-verified payload.
func (s *Store) Get(seq uint64) (RecordMeta, []byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := sort.Search(len(s.recs), func(i int) bool { return s.recs[i].meta.Seq >= seq })
	if i == len(s.recs) || s.recs[i].meta.Seq != seq {
		return RecordMeta{}, nil, fmt.Errorf("store: no record with seq %d", seq)
	}
	b, err := s.recs[i].payload()
	return s.recs[i].meta, b, err
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Records:      len(s.recs),
		Segments:     len(s.segs),
		Bytes:        s.liveBytes,
		LastSeq:      s.lastSeq,
		Appends:      s.appends,
		AppendErrors: s.appendErrors,
		Compactions:  s.compactions,
		TornBytes:    s.tornBytes,
		StaleDropped: s.staleDropped,
	}
}

// Close releases the store's file handles and its directory lock.
// Concurrent readers finish first (they hold the read lock).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

func (s *Store) closeLocked() error {
	var first error
	for _, seg := range s.segs {
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.segs = nil
	s.recs = nil
	s.byKey = nil
	if s.lock != nil {
		s.lock.Close() // releases the directory lock
		s.lock = nil
	}
	return first
}
