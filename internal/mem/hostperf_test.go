package mem

// Host-performance guards for the non-transactional fast path: the
// branch-lean ReadPlain/WritePlain route must not allocate in steady
// state, and the slow route must produce identical values and coherence
// effects (the bit-identity sweep in internal/bench covers the latter
// end to end; here we pin the allocation contract and benchmark the
// paths in isolation).

import (
	"fmt"
	"testing"

	"stacktrack/internal/word"
)

// TestPlainFastPathZeroAlloc pins the tentpole contract: a plain read or
// write on the fast path performs zero Go allocations.
func TestPlainFastPathZeroAlloc(t *testing.T) {
	m := New(Config{Words: 1 << 14})
	// Touch the region once so the high-watermark and counter lanes are
	// established; steady state begins after that.
	for a := word.Addr(0); a < 1<<12; a++ {
		m.WritePlain(0, a, uint64(a))
		m.ReadPlain(1, a)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for a := word.Addr(0); a < 1<<10; a++ {
			m.WritePlain(0, a, 1)
			m.ReadPlain(1, a)
		}
	})
	if allocs != 0 {
		t.Fatalf("plain fast path allocated %.2f times per run, want 0", allocs)
	}
}

// TestFastPathDisabledUnderObserver verifies the devirtualization seam:
// installing an observer routes accesses off the fast path, and removing
// it routes them back.
func TestFastPathDisabledUnderObserver(t *testing.T) {
	m := New(Config{Words: 1 << 12})
	if !m.fastPlain {
		t.Fatal("fresh memory should start on the fast path")
	}
	m.SetObserver(nopObserver{})
	if m.fastPlain {
		t.Fatal("fast path must be off while an observer is installed")
	}
	m.SetObserver(nil)
	if !m.fastPlain {
		t.Fatal("fast path must come back when the observer is removed")
	}
	tx := m.Begin(0)
	if m.fastPlain {
		t.Fatal("fast path must be off while a transaction is live")
	}
	if r := m.Commit(tx); r != NoAbort {
		t.Fatal(r)
	}
	if !m.fastPlain {
		t.Fatal("fast path must come back when the last transaction ends")
	}
}

// nopObserver watches nothing; installing it puts every plain access on
// the slow reference path.
type nopObserver struct{}

func (nopObserver) PlainRead(int, word.Addr)            {}
func (nopObserver) PlainWrite(int, word.Addr)           {}
func (nopObserver) SyncRMW(int, word.Addr, bool)        {}
func (nopObserver) TxBegin(int)                         {}
func (nopObserver) TxRead(int, word.Addr)               {}
func (nopObserver) TxWrite(int, word.Addr)              {}
func (nopObserver) TxCommit(int)                        {}
func (nopObserver) SyncHint(int, word.Addr, bool, bool) {}

// plainModes are the two plain-access routes the benchmarks compare.
var plainModes = []struct {
	name string
	obs  Observer
}{{"fast", nil}, {"observed", nopObserver{}}}

func BenchmarkPlainRead(b *testing.B) {
	for _, mode := range plainModes {
		b.Run(mode.name, func(b *testing.B) {
			m := New(Config{Words: 1 << 14})
			m.SetObserver(mode.obs)
			for a := word.Addr(0); a < 1<<12; a++ {
				m.WritePlain(0, a, uint64(a))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ReadPlain(1, word.Addr(i)&(1<<12-1))
			}
		})
	}
}

func BenchmarkPlainWrite(b *testing.B) {
	for _, mode := range plainModes {
		b.Run(mode.name, func(b *testing.B) {
			m := New(Config{Words: 1 << 14})
			m.SetObserver(mode.obs)
			for a := word.Addr(0); a < 1<<12; a++ {
				m.WritePlain(0, a, uint64(a))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.WritePlain(0, word.Addr(i)&(1<<12-1), uint64(i))
			}
		})
	}
}

// BenchmarkTxSegment measures short transactional segments — the HTM hot
// path. "read-write" is begin, a few reads, one buffered write, commit.
// "frame-local" mirrors a StackTrack segment touching its thread's frame:
// write k words of one line, read them back (store-to-load forwarding),
// then read a line the transaction does not own.
func BenchmarkTxSegment(b *testing.B) {
	m := New(Config{Words: 1 << 14})
	for a := word.Addr(0); a < 1<<10; a++ {
		m.WritePlain(0, a, uint64(a))
	}
	b.Run("read-write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tx := m.Begin(0)
			base := word.Addr(i) & (1<<10 - 8)
			for k := word.Addr(0); k < 4; k++ {
				if _, _, r := m.TxRead(tx, base+k); r != NoAbort {
					b.Fatal(r)
				}
			}
			if _, r := m.TxWrite(tx, base, uint64(i)); r != NoAbort {
				b.Fatal(r)
			}
			if r := m.Commit(tx); r != NoAbort {
				b.Fatal(r)
			}
		}
	})
	const frame = word.Addr(1 << 12) // a line of its own, above the data
	for _, k := range []word.Addr{2, 8} {
		b.Run(fmt.Sprintf("frame-local/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tx := m.Begin(0)
				for w := word.Addr(0); w < k; w++ {
					if _, r := m.TxWrite(tx, frame+w, uint64(i)); r != NoAbort {
						b.Fatal(r)
					}
				}
				for w := word.Addr(0); w < k; w++ {
					if v, _, r := m.TxRead(tx, frame+w); r != NoAbort || v != uint64(i) {
						b.Fatal(v, r)
					}
				}
				if _, _, r := m.TxRead(tx, word.Addr(i)&(1<<10-1)); r != NoAbort {
					b.Fatal(r)
				}
				if r := m.Commit(tx); r != NoAbort {
					b.Fatal(r)
				}
			}
		})
	}
}
