//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package store

import (
	"errors"
	"fmt"
	"os"
	"testing"
)

// TestSingleWriter: a second Open of a directory that is still open
// fails, so no second handle can compact under a live writer and lose
// its later acknowledged appends. Once the first handle closes, the
// directory opens again with every record intact.
func TestSingleWriter(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		appendDoc(t, a, fmt.Sprintf("a-%d", i), testDoc(t, "E1a", 4, float64(i)))
	}
	if b, err := Open(dir, Options{Retain: Retention{PerExperiment: 1}}); err == nil {
		b.Close()
		t.Fatal("second Open of a held store directory succeeded")
	}
	// The refused Open must not have disturbed the writer.
	for i := 3; i < 5; i++ {
		appendDoc(t, a, fmt.Sprintf("a-%d", i), testDoc(t, "E1a", 4, float64(i)))
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	defer b.Close()
	if st := b.Stats(); st.Records != 5 || st.LastSeq != 5 {
		t.Fatalf("reopened stats = %+v, want 5 records", st)
	}
}

// TestFailedOpenReleasesLock: an Open that fails after taking the lock
// (here on a segment with a bad magic) releases it again.
func TestFailedOpenReleasesLock(t *testing.T) {
	dir := t.TempDir()
	bad := segmentPath(dir, 1)
	if err := os.WriteFile(bad, []byte("definitely not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
	if err := os.Remove(bad); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after a failed Open: %v", err)
	}
	s.Close()
}
