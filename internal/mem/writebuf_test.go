package mem

// Tests for the line-indexed write buffer: a randomized differential
// check against a map reference model, a snapshot round trip with
// buffered writes in flight, and allocation guards for the transaction
// hot path.

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"stacktrack/internal/rng"
	"stacktrack/internal/word"
)

// TestWriteBufferDifferential drives thread 0 through random
// transactions and checks every transactional read, and all committed
// memory after every step, against a reference model: committed memory
// as a map, plus the open transaction's buffered stores as a second map
// that commit merges and abort or doom discards.
func TestWriteBufferDifferential(t *testing.T) {
	const (
		lines     = 64 // region size in lines
		ownLines  = 40 // thread 0 writes only below this line
		stepsEach = 2000
	)
	// Event weights: write, read owned, read unowned, plain write by
	// another thread, commit, abort. Odd seeds run long transactions
	// whose write sets span many lines.
	short := []int{35, 25, 20, 8, 7, 5}
	long := []int{45, 30, 21, 2, 1, 1}
	for seed := uint64(1); seed <= 8; seed++ {
		src := rng.New(seed)
		weights := short
		if seed%2 == 1 {
			weights = long
		}
		m := New(Config{Words: 1 << 12, NoReuse: true})
		committed := map[word.Addr]uint64{}
		spec := map[word.Addr]uint64{} // thread 0's buffered stores
		var specAddrs []word.Addr      // spec's keys, for seeded picks
		touched := map[uint64]bool{}   // lines in thread 0's data set
		var owned []uint64             // lines thread 0 owns for write
		addrOn := func(l uint64) word.Addr { return word.Addr(l<<word.LineShift) + word.Addr(src.Intn(word.LineWords)) }
		expect := func(a word.Addr) uint64 {
			if v, ok := spec[a]; ok {
				return v
			}
			return committed[a]
		}
		var tx *Tx
		endTx := func() {
			tx = nil
			clear(spec)
			clear(touched)
			specAddrs, owned = specAddrs[:0], owned[:0]
		}
		for step := 0; step < stepsEach; step++ {
			if tx == nil {
				tx = m.Begin(0)
			}
			ev := 0
			for n := src.Intn(100); n >= weights[ev]; ev++ {
				n -= weights[ev]
			}
			switch ev {
			case 0: // write, often overwriting a buffered word
				var a word.Addr
				if len(specAddrs) > 0 && src.Intn(3) == 0 {
					a = specAddrs[src.Intn(len(specAddrs))]
				} else {
					a = addrOn(uint64(src.Intn(ownLines)))
				}
				v := src.Uint64()
				if _, r := m.TxWrite(tx, a, v); r != NoAbort {
					t.Fatalf("seed %d step %d: TxWrite(%d) = %v", seed, step, a, r)
				}
				if _, ok := spec[a]; !ok {
					specAddrs = append(specAddrs, a)
				}
				spec[a] = v
				l := word.Line(a)
				touched[l] = true
				if !slices.Contains(owned, l) {
					owned = append(owned, l)
				}
			case 1: // read a word on an owned line, buffered or not
				if len(owned) == 0 {
					continue
				}
				a := addrOn(owned[src.Intn(len(owned))])
				v, _, r := m.TxRead(tx, a)
				if r != NoAbort || v != expect(a) {
					t.Fatalf("seed %d step %d: TxRead(owned %d) = %d, %v; want %d", seed, step, a, v, r, expect(a))
				}
			case 2: // read a line the transaction does not own
				l := uint64(src.Intn(lines))
				if slices.Contains(owned, l) {
					continue
				}
				a := addrOn(l)
				v, _, r := m.TxRead(tx, a)
				if r != NoAbort || v != committed[a] {
					t.Fatalf("seed %d step %d: TxRead(unowned %d) = %d, %v; want %d", seed, step, a, v, r, committed[a])
				}
				touched[l] = true
			case 3: // another thread's plain write; dooms iff it hits the data set
				l := uint64(src.Intn(lines))
				a := addrOn(l)
				v := src.Uint64()
				m.WritePlain(1, a, v)
				committed[a] = v
				doomed, reason := tx.Doomed()
				if doomed != touched[l] {
					t.Fatalf("seed %d step %d: plain write to line %d doomed=%v, want %v", seed, step, l, doomed, touched[l])
				}
				if doomed {
					if reason != Conflict {
						t.Fatalf("seed %d step %d: doom reason %v", seed, step, reason)
					}
					if _, _, r := m.TxRead(tx, a); r != Conflict {
						t.Fatalf("seed %d step %d: doomed read returned %v", seed, step, r)
					}
					m.FinishAbort(tx)
					endTx()
				}
			case 4: // commit
				if r := m.Commit(tx); r != NoAbort {
					t.Fatalf("seed %d step %d: Commit = %v", seed, step, r)
				}
				for a, v := range spec {
					committed[a] = v
				}
				endTx()
			default: // abort
				m.AbortTx(0, Explicit)
				if r := m.FinishAbort(tx); r != Explicit {
					t.Fatalf("seed %d step %d: FinishAbort = %v", seed, step, r)
				}
				endTx()
			}
			for a := word.Addr(0); a < lines*word.LineWords; a++ {
				if got := m.Peek(a); got != committed[a] {
					t.Fatalf("seed %d step %d: committed word %d = %d, want %d", seed, step, a, got, committed[a])
				}
			}
		}
	}
}

// TestWriteBufferSnapshotRoundTrip saves a memory holding one active and
// one doomed transaction, each with buffered writes over three lines, and
// checks that restore then save reproduces the state exactly — Writes in
// insertion order included — and that the restored active transaction
// still forwards and commits its buffered values.
func TestWriteBufferSnapshotRoundTrip(t *testing.T) {
	cfg := Config{Words: 1 << 12, NoReuse: true}
	m := New(cfg)
	for a := word.Addr(0); a < 512; a++ {
		m.WritePlain(3, a, uint64(a)+1000)
	}
	// Interleave lines so insertion order differs from line order.
	active := []TxWriteState{{Addr: 17, Val: 1}, {Addr: 40, Val: 2}, {Addr: 8, Val: 3}, {Addr: 16, Val: 4}, {Addr: 41, Val: 5}, {Addr: 17, Val: 6}}
	doomed := []TxWriteState{{Addr: 200, Val: 7}, {Addr: 131, Val: 8}, {Addr: 260, Val: 9}, {Addr: 130, Val: 10}}
	t0, t1 := m.Begin(0), m.Begin(1)
	for _, w := range active {
		if _, r := m.TxWrite(t0, w.Addr, w.Val); r != NoAbort {
			t.Fatal(r)
		}
	}
	for _, w := range doomed {
		if _, r := m.TxWrite(t1, w.Addr, w.Val); r != NoAbort {
			t.Fatal(r)
		}
	}
	m.WritePlain(2, 202, 99) // dooms thread 1
	if d, r := t1.Doomed(); !d || r != Conflict {
		t.Fatalf("thread 1 doomed=%v reason=%v", d, r)
	}

	s1 := m.SaveState()
	wantWrites := map[int][]TxWriteState{
		0: {{Addr: 17, Val: 6}, {Addr: 40, Val: 2}, {Addr: 8, Val: 3}, {Addr: 16, Val: 4}, {Addr: 41, Val: 5}},
		1: doomed,
	}
	for _, l := range []uint64{2, 5, 1} { // thread 0's lines, first write first
		if s1.LineWriter[l] != 1 {
			t.Fatalf("saved LineWriter[%d] = %d, want owner tid+1 = 1", l, s1.LineWriter[l])
		}
	}
	for _, d := range s1.Txs {
		if !reflect.DeepEqual(d.Writes, wantWrites[d.Tid]) {
			t.Fatalf("thread %d Writes = %v, want %v", d.Tid, d.Writes, wantWrites[d.Tid])
		}
	}
	m2 := New(cfg)
	m2.RestoreState(s1)
	if s2 := m2.SaveState(); !reflect.DeepEqual(s1, s2) {
		t.Fatalf("round trip changed the state:\n%+v\n%+v", s1, s2)
	}

	tx := m2.CurrentTx(0)
	if tx == nil || !tx.Active() {
		t.Fatal("restored transaction is not active")
	}
	for _, w := range wantWrites[0] {
		if v, _, r := m2.TxRead(tx, w.Addr); r != NoAbort || v != w.Val {
			t.Fatalf("restored read of %d = %d, %v; want %d", w.Addr, v, r, w.Val)
		}
	}
	if v, _, _ := m2.TxRead(tx, 18); v != 1018 { // owned line, unbuffered word
		t.Fatalf("restored read of unbuffered 18 = %d, want 1018", v)
	}
	if r := m2.Commit(tx); r != NoAbort {
		t.Fatal(r)
	}
	for _, w := range wantWrites[0] {
		if got := m2.Peek(w.Addr); got != w.Val {
			t.Fatalf("committed %d = %d, want %d", w.Addr, got, w.Val)
		}
	}
	if r := m2.FinishAbort(m2.CurrentTx(1)); r != Conflict {
		t.Fatalf("restored doomed transaction finished with %v", r)
	}
	for _, w := range doomed {
		if got, want := m2.Peek(w.Addr), uint64(w.Addr)+1000; got != want {
			t.Fatalf("doomed write leaked: %d = %d, want %d", w.Addr, got, want)
		}
	}
}

// TestBeginFreshAllocBytes pins the size of a new transaction descriptor:
// the write buffer grows with the write set instead of being a fixed
// table, so the first Begin of a thread stays small.
func TestBeginFreshAllocBytes(t *testing.T) {
	m := New(Config{Words: 1 << 12, NoReuse: true})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.Begin(0)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<10 {
		t.Fatalf("first Begin allocated %d bytes, want < 16 KiB", got)
	}
}

// TestTxSegmentZeroAlloc pins the steady state: once a thread's
// descriptor has grown to its write set, a begin/write/read/commit
// segment performs no Go allocation.
func TestTxSegmentZeroAlloc(t *testing.T) {
	m := New(Config{Words: 1 << 12, NoReuse: true})
	segment := func() {
		tx := m.Begin(0)
		for a := word.Addr(64); a < 64+4*word.LineWords; a += 3 {
			m.TxWrite(tx, a, uint64(a))
			m.TxRead(tx, a)
			m.TxRead(tx, a+512)
		}
		if r := m.Commit(tx); r != NoAbort {
			t.Fatal(r)
		}
	}
	segment()
	if allocs := testing.AllocsPerRun(100, segment); allocs != 0 {
		t.Fatalf("transaction segment allocated %.2f times per run, want 0", allocs)
	}
}
