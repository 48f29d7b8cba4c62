package store

// Compaction. Sealed segments are rewritten — minus whatever the
// retention policy drops — into a single new segment that lands under
// the lowest sealed id via write-to-temp + fsync + atomic rename, after
// which the now-redundant higher-numbered sealed segments are removed.
// Readers keep running throughout: the heavy rewrite happens outside
// the store lock against immutable sealed files, and the index swap is
// one short critical section.
//
// Crash-safety is the interesting part, and it needs no write-ahead
// anything:
//
//   - crash before the rename: the temp file was never visible;
//     listSegments deletes it on the next open.
//   - crash after the rename, before the removals: the next open scans
//     the compacted segment first (lowest id), then the stale originals.
//     Every stale record has a sequence number at or below the compacted
//     segment's coverUpTo header, so the seq-monotonic scan skips them
//     all and deletes the fully-stale files — the interrupted compaction
//     simply completes itself.
//
// coverUpTo (not "max surviving seq") is what makes the second case
// airtight: retention may drop records *newer* than any survivor of a
// given experiment, and a survivor-based watermark could resurrect
// those from an unremoved original.

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
)

// CompactStats reports one compaction's effect.
type CompactStats struct {
	// SegmentsBefore/After count sealed+active segments.
	SegmentsBefore int `json:"segments_before"`
	SegmentsAfter  int `json:"segments_after"`
	// Dropped is how many records retention removed; Kept survived.
	Dropped int `json:"dropped"`
	Kept    int `json:"kept"`
	// BytesReclaimed is the on-disk footprint freed.
	BytesReclaimed int64 `json:"bytes_reclaimed"`
}

// Compact rewrites the sealed segments under the retention policy. The
// active segment is rotated first so every record outside the current
// append point is eligible. No-op (without error) when there is nothing
// to compact.
func (s *Store) Compact() (CompactStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Phase 1 (locked): rotate the active segment, snapshot the sealed
	// set and the survivor plan.
	s.mu.Lock()
	if s.segs == nil {
		s.mu.Unlock()
		return CompactStats{}, fmt.Errorf("store: closed")
	}
	active := s.segs[len(s.segs)-1]
	if active.size > segHeaderLen {
		seg, err := createSegment(s.dir, active.id+1, 0)
		if err != nil {
			s.mu.Unlock()
			return CompactStats{}, fmt.Errorf("store: rotate for compaction: %w", err)
		}
		s.segs = append(s.segs, seg)
	}
	sealed := append([]*segment(nil), s.segs[:len(s.segs)-1]...)
	stats := CompactStats{SegmentsBefore: len(s.segs)}
	if len(sealed) == 0 {
		stats.SegmentsAfter = len(s.segs)
		s.mu.Unlock()
		return stats, nil
	}
	sealedSet := map[*segment]bool{}
	var cover uint64
	for _, seg := range sealed {
		sealedSet[seg] = true
		if seg.cover > cover {
			cover = seg.cover
		}
	}
	drop := s.retentionDropsLocked(sealedSet)
	var plan []*record // survivors in sealed segments, ascending seq
	for _, r := range s.recs {
		if !sealedSet[r.seg] {
			continue
		}
		if r.meta.Seq > cover {
			cover = r.meta.Seq
		}
		if drop[r] {
			stats.Dropped++
			continue
		}
		plan = append(plan, r)
	}
	stats.Kept = len(plan)
	s.mu.Unlock()

	// Phase 2 (unlocked): rewrite survivors into a temp file. Sealed
	// segments are immutable and their handles stay open, so reading
	// them races with nothing.
	lowest := sealed[0]
	tmpPath := lowest.path + ".tmp"
	newOff, size, err := writeCompacted(tmpPath, cover, plan)
	if err != nil {
		os.Remove(tmpPath)
		return CompactStats{}, err
	}

	// The rename makes the compacted segment durable and visible in one
	// step, replacing the lowest sealed segment's file.
	if err := os.Rename(tmpPath, lowest.path); err != nil {
		os.Remove(tmpPath)
		return CompactStats{}, fmt.Errorf("store: compaction rename: %w", err)
	}
	syncDir(s.dir)

	// Phase 3 (locked): swap the index to the compacted segment, close
	// the old handles, remove the redundant files.
	newSeg, err := openSegment(lowest.path, lowest.id)
	if err != nil {
		return CompactStats{}, fmt.Errorf("store: reopen compacted segment: %w", err)
	}
	newSeg.size = size

	s.mu.Lock()
	var recs []*record
	var liveBytes int64
	for _, r := range s.recs {
		if !sealedSet[r.seg] {
			recs = append(recs, r)
			liveBytes += r.frameLen()
			continue
		}
		if off, ok := newOff[r]; ok {
			r.seg, r.off = newSeg, off
			recs = append(recs, r)
			liveBytes += r.frameLen()
			newSeg.records++
		} else if r.meta.Key != "" {
			s.dropKeyLocked(r)
		}
	}
	s.recs = recs
	s.liveBytes = liveBytes
	var segs []*segment
	segs = append(segs, newSeg)
	for _, seg := range s.segs {
		if !sealedSet[seg] {
			segs = append(segs, seg)
		}
	}
	s.segs = segs
	s.compactions++
	stats.SegmentsAfter = len(segs)
	s.mu.Unlock()

	for _, seg := range sealed {
		seg.f.Close()
		if seg != lowest {
			if err := os.Remove(seg.path); err != nil {
				// Harmless: the next open skips its records (all at or
				// below coverUpTo) and deletes it then.
				continue
			}
		}
		stats.BytesReclaimed += seg.size
	}
	stats.BytesReclaimed -= size
	return stats, nil
}

// dropKeyLocked removes r from the by-key index; s.mu held.
func (s *Store) dropKeyLocked(r *record) {
	rs := s.byKey[r.meta.Key]
	for i, x := range rs {
		if x == r {
			s.byKey[r.meta.Key] = append(rs[:i:i], rs[i+1:]...)
			break
		}
	}
	if len(s.byKey[r.meta.Key]) == 0 {
		delete(s.byKey, r.meta.Key)
	}
}

// retentionDropsLocked computes which sealed records the policy drops;
// s.mu held. Both bounds keep the newest: PerExperiment counts back
// from the most recent record of each experiment, MaxBytes frees
// oldest-first.
func (s *Store) retentionDropsLocked(sealedSet map[*segment]bool) map[*record]bool {
	drop := map[*record]bool{}
	ret := s.opts.Retain
	if ret.PerExperiment > 0 {
		perExp := map[string]int{}
		for i := len(s.recs) - 1; i >= 0; i-- {
			r := s.recs[i]
			perExp[r.meta.Experiment]++
			if perExp[r.meta.Experiment] > ret.PerExperiment && sealedSet[r.seg] {
				drop[r] = true
			}
		}
	}
	if ret.MaxBytes > 0 {
		total := int64(0)
		for _, r := range s.recs {
			if !drop[r] {
				total += r.frameLen()
			}
		}
		for _, r := range s.recs {
			if total <= ret.MaxBytes {
				break
			}
			if drop[r] || !sealedSet[r.seg] {
				continue
			}
			drop[r] = true
			total -= r.frameLen()
		}
	}
	return drop
}

// writeCompacted writes plan's frames, verbatim, into a fresh segment
// file at path with the given coverUpTo, returning each record's new
// frame offset and the file's final size. The file is fsynced before
// returning — the subsequent rename must never expose unwritten data.
func writeCompacted(path string, cover uint64, plan []*record) (map[*record]int64, int64, error) {
	// Plan arrives in ascending-seq order already (s.recs order), but be
	// explicit: the on-disk order is a correctness property (the open
	// scan rebuilds seq monotonicity from it).
	sort.Slice(plan, func(i, j int) bool { return plan[i].meta.Seq < plan[j].meta.Seq })
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("store: compaction temp: %w", err)
	}
	defer f.Close()
	hdr := make([]byte, segHeaderLen)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], cover)
	if _, err := f.Write(hdr); err != nil {
		return nil, 0, err
	}
	newOff := make(map[*record]int64, len(plan))
	off := int64(segHeaderLen)
	for _, r := range plan {
		frame := make([]byte, r.frameLen())
		if _, err := r.seg.f.ReadAt(frame, r.off); err != nil {
			return nil, 0, fmt.Errorf("store: compaction read record %d: %w", r.meta.Seq, err)
		}
		if _, err := f.Write(frame); err != nil {
			return nil, 0, fmt.Errorf("store: compaction write: %w", err)
		}
		newOff[r] = off
		off += int64(len(frame))
	}
	if err := f.Sync(); err != nil {
		return nil, 0, err
	}
	return newOff, off, nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
