package mem

import (
	"encoding/json"
	"fmt"
	"testing"

	"stacktrack/internal/word"
)

// poolWords is a memory size no other test uses, so the released-memory
// pool holds nothing of this size except what this test puts there.
const poolWords = 3*1024 + 8

// TestReleasedMemoryIsPristine pins the pool's scrub contract: a Memory
// released in the middle of arbitrary activity and handed out again by
// New is indistinguishable from a freshly allocated one.
func TestReleasedMemoryIsPristine(t *testing.T) {
	m := New(Config{Words: poolWords})
	dirtyMemory(t, m)
	m.Release()
	reused := New(Config{Words: poolWords})
	if reused != m {
		t.Fatal("New did not hand back the released Memory; the test needs the pool to reuse it")
	}
	fresh := New(Config{Words: poolWords})
	if fresh == m {
		t.Fatal("the pool handed the same Memory out twice")
	}

	if !reused.fastPlain || reused.obs != nil || reused.liveTx != 0 {
		t.Fatalf("reused memory: fastPlain=%v obs=%v liveTx=%d, want true, nil, 0",
			reused.fastPlain, reused.obs, reused.liveTx)
	}
	for tid, tx := range reused.txs {
		if tx == nil {
			continue
		}
		if tx.state != TxIdle || tx.reason != NoAbort || len(tx.readLines) != 0 ||
			len(tx.writeLines) != 0 || len(tx.buf.lines) != 0 || len(tx.buf.order) != 0 {
			t.Fatalf("thread %d's descriptor is not idle: state %v reason %v, %d read / %d write lines, %d buffered",
				tid, tx.state, tx.reason, len(tx.readLines), len(tx.writeLines), len(tx.buf.order))
		}
	}
	// Descriptors for threads that ran transactions stay with the Memory
	// (SaveState includes idle ones on purpose); everything else in the
	// saved state must already match.
	if got, want := stateBytes(t, reused, false), stateBytes(t, fresh, false); got != want {
		t.Fatalf("reused memory state differs from a fresh one:\nreused: %s\nfresh:  %s", got, want)
	}

	got, want := replayTrace(reused), replayTrace(fresh)
	if got != want {
		t.Fatalf("access trace diverges on the reused memory:\nreused: %s\nfresh:  %s", got, want)
	}
	if rs, fs := reused.TotalStats(), fresh.TotalStats(); rs != fs {
		t.Fatalf("stats after the trace differ:\nreused: %+v\nfresh:  %+v", rs, fs)
	}
	if got, want := stateBytes(t, reused, true), stateBytes(t, fresh, true); got != want {
		t.Fatalf("state after the trace differs:\nreused: %s\nfresh:  %s", got, want)
	}
}

// dirtyMemory leaves m in the middle of everything a run can do: plain
// writes up to the top of the address space, coherence state on many
// lines, a live transaction with buffered writes on several lines and a
// read set, one doomed by another thread, and an installed observer.
func dirtyMemory(t *testing.T, m *Memory) {
	t.Helper()
	for _, a := range []word.Addr{10, 100, poolWords / 2, poolWords - 1} {
		m.WritePlain(0, a, uint64(a)+7)
		m.ReadPlain(3, a)
	}
	m.WritePlain(2, 100, 1)

	tx1 := m.Begin(1)
	mustRead(t, m, tx1, 200)
	for _, a := range []word.Addr{300, 308, 316} {
		if _, r := m.TxWrite(tx1, a, uint64(a)); r != NoAbort {
			t.Fatalf("tx write %d: %v", a, r)
		}
	}

	tx2 := m.Begin(2)
	mustRead(t, m, tx2, 400)
	m.WritePlain(3, 400, 9)
	if doomed, _ := tx2.Doomed(); !doomed {
		t.Fatal("a plain write to its read line must doom thread 2's transaction")
	}

	tx4 := m.Begin(4)
	mustRead(t, m, tx4, 500)

	m.SetObserver(nopObserver{})
	if m.liveTx != 2 || m.fastPlain {
		t.Fatalf("dirty memory: liveTx=%d fastPlain=%v, want 2 live transactions off the fast path", m.liveTx, m.fastPlain)
	}
}

func mustRead(t *testing.T, m *Memory, tx *Tx, a word.Addr) {
	t.Helper()
	if _, _, r := m.TxRead(tx, a); r != NoAbort {
		t.Fatalf("tx read %d: %v", a, r)
	}
}

// replayTrace runs a fixed access sequence and renders every observable
// outcome. It reads every address dirtyMemory wrote, touches the top
// word (so SaveState afterwards covers every dirtied line), and runs
// transactions on the threads that had descriptors, on lines those
// threads held before, so stale reader/writer bits would doom them.
func replayTrace(m *Memory) string {
	var out []string
	note := func(f string, args ...any) { out = append(out, fmt.Sprintf(f, args...)) }

	tx1 := m.Begin(1)
	v, miss, r := m.TxRead(tx1, 1000)
	note("tx1 read %d %v %v", v, miss, r)
	m.WritePlain(0, 200, 5) // stale reader bit on 200's line would doom tx1
	v, miss = m.ReadPlain(3, 300)
	note("plain read 300 %d %v", v, miss) // stale writer on 300's line would doom tx1
	note("tx1 commit %v", m.Commit(tx1))

	for _, tid := range []int{2, 4} {
		tx := m.Begin(tid)
		_, r := m.TxWrite(tx, word.Addr(1100+8*tid), uint64(tid))
		note("tx%d write %v commit %v", tid, r, m.Commit(tx))
	}

	for _, a := range []word.Addr{10, 100, 308, 316, 400, 500, poolWords / 2, poolWords - 1} {
		v, miss := m.ReadPlain(3, a)
		note("read %d = %d %v", a, v, miss)
		note("write %d %v", a, m.WritePlain(2, a, uint64(a)))
	}
	b, _ := json.Marshal(out)
	return string(b)
}

// stateBytes renders m's SaveState; withTxs=false drops the transaction
// descriptor list.
func stateBytes(t *testing.T, m *Memory, withTxs bool) string {
	t.Helper()
	st := m.SaveState()
	if !withTxs {
		st.Txs = nil
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
