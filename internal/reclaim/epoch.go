package reclaim

import (
	"stacktrack/internal/cost"
	"stacktrack/internal/sched"
	"stacktrack/internal/word"
)

// DefaultEpochLimit is the retire-buffer size that triggers a reclamation
// wait at the end of the current operation. The paper's epoch scheme waits
// for global progress before reclaiming each node ("before reclaiming a
// node, the free procedure checks that all of the threads made progress ...
// waiting for their progress"), so the default batch is a single node.
const DefaultEpochLimit = 1

// Epoch implements the paper's quiescence-based baseline: every thread
// bumps a timestamp at operation start and finish (odd while inside an
// operation); before freeing, the reclaimer snapshots the timestamps of all
// mid-operation threads and *waits* until every one has moved. The wait is
// what makes the scheme collapse once threads are preempted — reproduced
// here through the scheduler's Blocked mechanism.
//
// The wait runs at the *end* of the retiring operation, once the waiter's
// own timestamp is even: a thread that is waiting is itself quiescent, so
// concurrent reclaimers never deadlock on each other.
//
// The per-thread timestamp reuses the operation-counter control word.
type Epoch struct {
	sc    *sched.Scheduler
	limit int

	bufs [64][]word.Addr
	// watches holds each waiting thread's progress snapshots. The Blocked
	// closure reads through here (not a captured local) so a snapshot
	// restore can reinstall an in-flight wait from saved state.
	watches [64][]epochWatch
}

// epochWatch is one (thread, timestamp) progress snapshot of a wait.
type epochWatch struct {
	tid  int
	snap uint64
}

// NewEpoch creates the epoch scheme; limit is the retire-buffer threshold.
func NewEpoch(sc *sched.Scheduler, limit int) *Epoch {
	if limit <= 0 {
		limit = DefaultEpochLimit
	}
	return &Epoch{sc: sc, limit: limit}
}

// Name implements sched.Reclaimer.
func (*Epoch) Name() string { return "Epoch" }

// Attach implements sched.Reclaimer.
func (e *Epoch) Attach(t *sched.Thread) {}

// BeginOp implements sched.Reclaimer: one timestamp tick (odd = busy).
func (e *Epoch) BeginOp(t *sched.Thread, opID int) {
	t.Charge(cost.EpochTick)
	t.StorePlain(t.OperCntAddr(), t.M.Peek(t.OperCntAddr())+1)
}

// EndOp implements sched.Reclaimer: tick back to even, then — if retired
// nodes are pending — wait for global progress and free them.
func (e *Epoch) EndOp(t *sched.Thread) {
	t.Charge(cost.EpochTick)
	t.StorePlain(t.OperCntAddr(), t.M.Peek(t.OperCntAddr())+1)
	if len(e.bufs[t.ID]) >= e.limit {
		e.startWait(t)
	}
}

// ProtectLoad implements sched.Reclaimer: epochs need no per-load work.
func (e *Epoch) ProtectLoad(t *sched.Thread, _ int, src word.Addr) uint64 {
	return t.Load(src)
}

// Protect implements sched.Reclaimer: epochs need no extra guards.
func (e *Epoch) Protect(*sched.Thread, int, word.Addr) {}

// Retire implements sched.Reclaimer: buffer the node; the wait happens at
// the end of the operation.
func (e *Epoch) Retire(t *sched.Thread, p word.Addr) {
	e.bufs[t.ID] = append(e.bufs[t.ID], p)
}

// quiescent reports whether thread u's timestamp is even (outside any
// operation), as read by t.
func quiescent(t, u *sched.Thread) (uint64, bool) {
	ts := t.LoadPlain(u.OperCntAddr())
	return ts, ts%2 == 0
}

// startWait snapshots the busy threads' timestamps and parks t until all of
// them move, freeing the buffer on wake-up.
func (e *Epoch) startWait(t *sched.Thread) {
	e.watches[t.ID] = e.watches[t.ID][:0]
	for _, u := range e.sc.Threads() {
		if u.ID == t.ID || u.Done() {
			continue
		}
		if ts, quiet := quiescent(t, u); !quiet {
			e.watches[t.ID] = append(e.watches[t.ID], epochWatch{tid: u.ID, snap: ts})
		}
	}
	t.Trace(sched.TraceBlocked, uint64(len(e.watches[t.ID])), 0)
	e.installWait(t)
}

// installWait parks t on its recorded watches. Split out of startWait so a
// snapshot restore can reinstall the wait without re-snapshotting.
func (e *Epoch) installWait(t *sched.Thread) {
	threads := e.sc.Threads()
	t.Blocked = func() bool {
		for _, w := range e.watches[t.ID] {
			u := threads[w.tid]
			if u.Done() {
				continue
			}
			if t.LoadPlain(u.OperCntAddr()) == w.snap {
				return false // still inside the same operation
			}
		}
		e.flush(t)
		return true
	}
}

// flush frees everything in the thread's retire buffer.
func (e *Epoch) flush(t *sched.Thread) {
	for _, p := range e.bufs[t.ID] {
		t.FreeNow(p)
	}
	e.bufs[t.ID] = e.bufs[t.ID][:0]
}

// Drain implements sched.Reclaimer: reclaimable once no thread is
// mid-operation.
func (e *Epoch) Drain(t *sched.Thread) {
	for _, u := range e.sc.Threads() {
		if u.ID != t.ID && !u.Done() && t.M.Peek(u.OperCntAddr())%2 == 1 {
			return // someone is still inside an operation
		}
	}
	e.flush(t)
}

// Pending returns the number of retired-but-unfreed nodes for thread tid.
func (e *Epoch) Pending(tid int) int { return len(e.bufs[tid]) }
