package store

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// segmentFiles returns the contents of dir's segment files, oldest
// first.
func segmentFiles(t testing.TB, dir string) [][]byte {
	t.Helper()
	ids, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, id := range ids {
		b, err := os.ReadFile(segmentPath(dir, id))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzStoreOpen: segment files are bytes from disk, and the serve cache
// reads results back out of them. Open must never panic on arbitrary
// segment contents. When it accepts them, every indexed record reads
// back as its payload or an error, queries do not panic, and a record
// appended afterwards survives a reopen.
func FuzzStoreOpen(f *testing.F) {
	// Seeds: a one-segment store, a rotated two-segment store, and a
	// compacted store whose first segment carries a coverUpTo header.
	for _, opts := range []Options{
		{},
		{SegmentBytes: 512},
		{SegmentBytes: 512, Retain: Retention{PerExperiment: 1}},
	} {
		dir := f.TempDir()
		s, err := Open(dir, opts)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			appendDoc(f, s, fmt.Sprintf("seed-%d", i), testDoc(f, "E1a", 2, float64(100+i)))
		}
		if opts.Retain.PerExperiment > 0 {
			if _, err := s.Compact(); err != nil {
				f.Fatal(err)
			}
		}
		s.Close()
		segs := segmentFiles(f, dir)
		if len(segs) == 1 {
			f.Add(segs[0], []byte(nil))
		} else {
			f.Add(segs[0], segs[1])
		}
	}

	f.Fuzz(func(t *testing.T, seg1, seg2 []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(segmentPath(dir, 1), seg1, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(seg2) > 0 {
			if err := os.WriteFile(segmentPath(dir, 2), seg2, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir, Options{})
		if err != nil {
			return
		}
		for _, m := range s.Records(Query{}) {
			if _, p, err := s.Get(m.Seq); err == nil && p == nil {
				t.Fatalf("Get(%d): no payload and no error", m.Seq)
			}
			if p, ok, err := s.Lookup(m.Key); ok && (err != nil || p == nil) {
				t.Fatalf("Lookup(%q): ok with payload %v, error %v", m.Key, p != nil, err)
			}
		}
		s.History(Query{})
		s.Trends(Query{})

		payload := []byte(`{"schema": 1, "experiments": []}` + "\n")
		rec, err := s.Append(RecordMeta{Key: "fuzz-key"}, payload)
		s.Close()
		if err != nil {
			return
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen after an acknowledged append: %v", err)
		}
		defer s2.Close()
		if _, got, err := s2.Get(rec.Seq); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("acknowledged record %d lost across reopen: %v", rec.Seq, err)
		}
		if got, ok, err := s2.Lookup("fuzz-key"); !ok || err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("Lookup of the appended key after reopen: ok=%v err=%v", ok, err)
		}
	})
}
