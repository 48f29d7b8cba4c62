package main

import (
	"time"

	"stacktrack/internal/word"
)

// probeIters is the iteration count of every probe loop.
const probeIters = 1 << 16

// sink keeps probe results alive so the loops cannot be optimized away.
var sink uint64

// probe times loops over single layers' public functions on mc, after its
// run has ended (nothing it touches is measured afterwards). Each result
// is host nanoseconds per call.
func probe(mc *machine) map[string]float64 {
	m, al, t := mc.m, mc.al, mc.threads[0]
	p := al.Alloc(0, 8)
	timed := func(f func(i int)) float64 {
		t0 := time.Now()
		for i := 0; i < probeIters; i++ {
			f(i)
		}
		return float64(time.Since(t0).Nanoseconds()) / probeIters
	}
	at := func(i int) word.Addr { return p + word.Addr(i&7) }
	out := map[string]float64{}

	out["mem.read_plain_ns"] = timed(func(i int) {
		v, _ := m.ReadPlain(0, at(i))
		sink += v
	})
	out["mem.write_plain_ns"] = timed(func(i int) { m.WritePlain(0, at(i), uint64(i)) })

	// One long transaction over a single line: no capacity or conflict
	// abort can end it early.
	tx := m.Begin(0)
	out["mem.tx_read_ns"] = timed(func(i int) {
		v, _, _ := m.TxRead(tx, at(i))
		sink += v
	})
	out["mem.tx_write_ns"] = timed(func(i int) { m.TxWrite(tx, at(i), uint64(i)) })
	m.Commit(tx)
	// Begin, one buffered write, Commit.
	out["mem.tx_commit_ns"] = timed(func(i int) {
		tx := m.Begin(0)
		m.TxWrite(tx, at(i), uint64(i))
		m.Commit(tx)
	})

	out["alloc.alloc_free_ns"] = timed(func(int) { al.Free(0, al.Alloc(0, 4)) })

	f := t.PushFrame(4)
	out["sched.frame_local_ns"] = timed(func(i int) {
		f.Set(i&3, uint64(i))
		sink += f.Get(i & 3)
	}) / 2
	t.PopFrame(f)

	c := mc.reg.Counter("perfbench.probe")
	out["metrics.counter_inc_ns"] = timed(func(int) { c.Inc(0) })
	al.Free(0, p)
	return out
}
