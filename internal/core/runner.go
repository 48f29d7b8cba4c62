package core

// The StackTrack operation runner: executes an operation's basic blocks as
// a series of hardware-transaction segments (Algorithm 2), falling back to
// the software slow path when a single-block segment keeps failing (§5.4),
// and interleaving SCAN_AND_FREE chunks when the free set fills mid-
// operation.
//
// Segment abort/restart works exactly like hardware: the runner snapshots
// the register file, stack pointer, and program counter at segment start
// (the values a real abort would restore); buffered stack writes are
// discarded by the memory system, allocations are compensated, and
// execution resumes from the segment's first block.

import (
	"fmt"

	"stacktrack/internal/cost"
	"stacktrack/internal/mem"
	"stacktrack/internal/prog"
	"stacktrack/internal/sched"
	"stacktrack/internal/word"
)

type runnerState uint8

const (
	stIdle runnerState = iota
	stFast
	stSlow
	stScan
)

// Runner executes operations for one thread under StackTrack. It
// implements prog.Runner.
type Runner struct {
	st *StackTrack

	op    *prog.Op
	pc    int
	frame sched.Frame
	state runnerState

	// Scan interleaving.
	scan   scanner
	resume runnerState
	opDone bool

	// Segment state (fast path).
	inTx     bool
	segPC    int
	segSP    int
	segRegs  [sched.NumRegs]uint64
	steps    int
	limit    int
	splitIdx int
	segFails int
	usedSlow bool

	// Nodes retired inside the current segment; they enter the free set
	// only after the segment (and thus the unlink) commits.
	retirePending []word.Addr

	// Virtual-time marks for the op-latency histogram and the
	// wasted-cycles counter. They never feed back into charging.
	opStartV  cost.Cycles
	segStartV cost.Cycles
}

// NewRunner creates a StackTrack runner bound to framework st.
func NewRunner(st *StackTrack) *Runner { return &Runner{st: st} }

// Busy implements prog.Runner.
func (r *Runner) Busy() bool { return r.state != stIdle }

// Start implements prog.Runner: SPLIT_INIT plus activity registration.
func (r *Runner) Start(t *sched.Thread, op *prog.Op) {
	if r.state != stIdle {
		panic("core: Start while an operation is in progress")
	}
	st := r.st
	st.state(t).runner = r
	r.opStartV = t.VTime()
	// Op setup (activity registration, SPLIT_INIT stores) is tx-begin
	// work; the fence inside is attributed to its own phase.
	t.Trace(sched.TraceSpanOpen, 0, 0)
	st.BeginOp(t, op.ID)
	t.Trace(sched.TraceOpStart, uint64(op.ID), 0)

	r.op = op
	r.pc = 0
	r.frame = t.PushFrame(op.FrameWords)
	r.splitIdx = 0
	r.segFails = 0
	r.usedSlow = false
	r.opDone = false
	r.inTx = false

	// SPLIT_INIT: reset the in-memory split counter and fence so the
	// counter write is ordered before any segment commit (Alg. 2).
	t.StorePlain(t.SplitsAddr(), 0)
	t.Fence()
	t.Trace(sched.TraceSpanClose, uint64(sched.PhaseTxBegin), 0)

	if st.cfg.ForceSlowPct > 0 && t.Rng.Intn(100) < st.cfg.ForceSlowPct {
		// Figure 5 experiment: force this operation onto the slow path.
		r.usedSlow = true
		st.slowBegin(t)
		r.state = stSlow
		return
	}
	r.state = stFast
}

// Step implements prog.Runner.
func (r *Runner) Step(t *sched.Thread) bool {
	switch r.state {
	case stScan:
		if t.Tracer != nil {
			// Frees inside the scan are attributed to the free phase;
			// the span keeps only the inspection itself.
			t.Tracer.TraceEvent(t, sched.TraceSpanOpen, 0, 0)
			defer t.Tracer.TraceEvent(t, sched.TraceSpanClose, uint64(sched.PhaseScan), 0)
		}
		if r.scan.step(t) {
			r.scan = nil
			if r.opDone {
				return r.finishOp(t)
			}
			r.state = r.resume
		}
		return false
	case stSlow:
		return r.stepSlow(t)
	case stFast:
		return r.stepFast(t)
	default:
		panic("core: Step without an operation in progress")
	}
}

// --- Fast path --------------------------------------------------------------

func (r *Runner) stepFast(t *sched.Thread) bool {
	if r.op.Unsupported(r.pc) {
		return r.stepUnsupported(t)
	}
	if !r.inTx {
		r.splitStart(t)
	}
	finished, abort := r.fastWork(t)
	if abort != mem.NoAbort {
		r.handleAbort(t, abort)
		return false
	}
	return finished
}

// stepUnsupported handles a block that cannot run transactionally (§5.4):
// commit the current segment, execute the block non-transactionally, and
// let the next step open a fresh segment.
func (r *Runner) stepUnsupported(t *sched.Thread) bool {
	if r.inTx {
		if abort := r.guardedCommit(t, false); abort != mem.NoAbort {
			r.handleAbort(t, abort)
			return false
		}
	}
	cur := r.pc
	t.CurOp, t.CurBlock = r.op.Name, cur
	t.Trace(sched.TraceSpanOpen, uint64(r.op.ID), 0)
	t.Charge(cost.Block)
	if t.EffectObs != nil {
		r.pc = r.runBlockObserved(t, cur)
	} else {
		r.pc = r.op.Blocks[r.pc](t, r.frame)
	}
	t.Trace(sched.TraceSpanClose, uint64(sched.PhaseBlock), 0)
	if r.pc == prog.Done {
		if r.st.NeedScan(t) {
			r.beginScan(t, stFast)
			r.opDone = true
			return false
		}
		return r.finishOp(t)
	}
	if r.st.NeedScan(t) {
		r.beginScan(t, stFast)
	}
	return false
}

// runBlockObserved executes one basic block bracketed by the effect
// observer's BlockStart/BlockEnd events. An abort panic unwinding through
// the block reports committed=false — the execution was partial and its
// writes rolled back, so must-write obligations do not apply — before the
// runner's recovery handles it.
func (r *Runner) runBlockObserved(t *sched.Thread, cur int) int {
	obs := t.EffectObs
	obs.BlockStart(t, r.op.Name, cur)
	done := false
	defer func() { obs.BlockEnd(t, r.op.Name, cur, done) }()
	next := r.op.Blocks[cur](t, r.frame)
	done = true
	return next
}

// guardedCommit attempts a segment commit (with register/counter expose
// unless final) outside fastWork's recovery scope.
func (r *Runner) guardedCommit(t *sched.Thread, final bool) (abort mem.AbortReason) {
	defer func() {
		if rec := recover(); rec != nil {
			ae, ok := rec.(sched.AbortError)
			if !ok {
				panic(rec)
			}
			abort = ae.Reason
		}
	}()
	return r.commitSegment(t, final)
}

// commitSegment performs SPLIT_COMMIT; the caller handles abort recovery.
func (r *Runner) commitSegment(t *sched.Thread, final bool) mem.AbortReason {
	v0 := t.VTime()
	if !final {
		t.ExposeRegisters()
		t.Store(t.SplitsAddr(), uint64(r.splitIdx+1))
	}
	if reason := t.M.Commit(t.Tx); reason != mem.NoAbort {
		return reason
	}
	t.Charge(cost.TxCommit)
	// The commit event claims the expose/commit cost, excluding it from
	// the enclosing block span.
	r.afterCommit(t, t.VTime()-v0)
	return mem.NoAbort
}

// splitStart begins a segment: SPLIT_START of Algorithm 2.
func (r *Runner) splitStart(t *sched.Thread) {
	ts := r.st.state(t)
	r.steps = 0
	r.limit = ts.segLimit(r.st.cfg, r.op.ID, r.splitIdx)
	t.Tx = t.M.Begin(t.ID)
	t.Mode = sched.ModeFast
	t.Charge(cost.TxBegin)
	t.Trace(sched.TraceCycles, uint64(sched.PhaseTxBegin), cost.TxBegin)
	r.segStartV = t.VTime()
	r.inTx = true
	r.segPC = r.pc
	r.segSP = t.SP()
	r.segRegs = t.RegSnapshot()
}

// fastWork runs one basic block and, when a checkpoint fires, the segment
// commit. Any transactional abort surfaces as the returned reason.
func (r *Runner) fastWork(t *sched.Thread) (finished bool, abort mem.AbortReason) {
	// One basic block, plus the SPLIT_CHECKPOINT bookkeeping the compiler
	// injected at its start.
	cur := r.pc
	t.CurOp, t.CurBlock = r.op.Name, cur
	if t.Tracer != nil {
		// The close is deferred so the abort-panic path attributes too;
		// it runs after the recover below (LIFO), when the panic is
		// already handled. Commit/fence/free events inside claim their
		// own cycles.
		t.Tracer.TraceEvent(t, sched.TraceSpanOpen, uint64(r.op.ID), 0)
		defer t.Tracer.TraceEvent(t, sched.TraceSpanClose, uint64(sched.PhaseBlock), 0)
	}
	defer func() {
		if rec := recover(); rec != nil {
			ae, ok := rec.(sched.AbortError)
			if !ok {
				panic(rec)
			}
			finished = false
			abort = ae.Reason
		}
	}()

	t.Charge(cost.Block + cost.Checkpoint)
	if t.EffectObs != nil {
		r.pc = r.runBlockObserved(t, cur)
	} else {
		r.pc = r.op.Blocks[r.pc](t, r.frame)
	}
	r.steps++

	// SPLIT_CHECKPOINT policy. Programmer-defined transactional regions
	// (§5.5) constrain it: never commit between two atomic blocks; always
	// commit on a region boundary, so the region starts on a fresh
	// segment and its registers are exposed when it ends.
	final := r.pc == prog.Done
	curAtomic := r.op.Atomic(cur)
	nextAtomic := !final && r.op.Atomic(r.pc)
	var needCommit bool
	switch {
	case final:
		needCommit = true
	case curAtomic && nextAtomic:
		needCommit = false
	case curAtomic != nextAtomic:
		needCommit = true
	default:
		needCommit = r.steps >= r.limit || len(r.retirePending) > 0
	}
	if !needCommit {
		return false, mem.NoAbort
	}

	// SPLIT_COMMIT (the register expose is skipped on the final commit,
	// as the paper permits).
	if reason := r.commitSegment(t, final); reason != mem.NoAbort {
		return false, reason
	}

	if final {
		if r.st.NeedScan(t) {
			r.beginScan(t, stFast)
			r.opDone = true
			return false, mem.NoAbort
		}
		return r.finishOp(t), mem.NoAbort
	}
	if r.st.NeedScan(t) {
		r.beginScan(t, stFast)
	}
	return false, mem.NoAbort
}

// afterCommit performs the post-commit bookkeeping: predictor update,
// statistics, retire flushing. commit is the commit work's cost.
func (r *Runner) afterCommit(t *sched.Thread, commit cost.Cycles) {
	ts := r.st.state(t)
	t.Mode = sched.ModePlain
	t.Tx = nil
	r.inTx = false
	t.ClearTxAllocs()

	ts.onSegCommit(r.st.cfg, r.op.ID, r.splitIdx)
	c := &r.st.c
	c.segments.Inc(t.ID)
	c.segmentBlocks.Add(t.ID, uint64(r.steps))
	c.segLenHist.Observe(t.ID, uint64(r.steps))
	t.Trace(sched.TraceSegCommit, uint64(r.steps), commit)
	r.splitIdx++
	r.segFails = 0

	// The unlinks are durable now; the retired nodes may enter the free
	// set (FREE of Algorithm 1).
	for _, p := range r.retirePending {
		ts.freeSet = append(ts.freeSet, p)
	}
	r.retirePending = r.retirePending[:0]
}

// handleAbort restores the segment-start state and applies the predictor's
// MANAGE_SPLIT_ABORT policy, falling back to the slow path when a one-block
// segment keeps failing.
func (r *Runner) handleAbort(t *sched.Thread, reason mem.AbortReason) {
	v0 := t.VTime()
	if v0 > r.segStartV {
		// Everything since SPLIT_START was thrown away by the abort.
		r.st.c.wastedCycles.Add(t.ID, uint64(v0-r.segStartV))
	}
	t.M.FinishAbort(t.Tx)
	t.Charge(cost.TxAbort)
	t.Mode = sched.ModePlain
	t.Tx = nil
	r.inTx = false
	t.RollbackTxAllocs()
	r.retirePending = r.retirePending[:0]

	t.RestoreRegs(r.segRegs)
	t.SetSP(r.segSP)
	r.pc = r.segPC
	t.Trace(sched.TraceSegAbort, uint64(reason), t.VTime()-v0)

	ts := r.st.state(t)
	ts.onSegAbort(r.st.cfg, r.op.ID, r.splitIdx)
	if ts.segLimit(r.st.cfg, r.op.ID, r.splitIdx) == 1 {
		r.segFails++
		if r.segFails >= r.st.cfg.SlowFailThreshold {
			// The hardware cannot execute even a single block: jump
			// to the matching slow-path checkpoint (§5.4).
			r.usedSlow = true
			r.st.slowBegin(t)
			r.state = stSlow
			r.segFails = 0
			t.Trace(sched.TraceSlowPath, uint64(r.pc), 0)
		}
	} else {
		r.segFails = 0
	}
}

// --- Slow path --------------------------------------------------------------

func (r *Runner) stepSlow(t *sched.Thread) bool {
	cur := r.pc
	t.CurOp, t.CurBlock = r.op.Name, cur
	t.Trace(sched.TraceSpanOpen, uint64(r.op.ID), 0)
	t.Charge(cost.Block)
	if t.EffectObs != nil {
		r.pc = r.runBlockObserved(t, cur)
	} else {
		r.pc = r.op.Blocks[r.pc](t, r.frame)
	}
	t.Trace(sched.TraceSpanClose, uint64(sched.PhaseBlock), 0)

	if r.pc == prog.Done {
		if r.st.NeedScan(t) {
			r.beginScan(t, stSlow)
			r.opDone = true
			return false
		}
		return r.finishOp(t)
	}
	if r.st.NeedScan(t) {
		r.beginScan(t, stSlow)
	}
	return false
}

// --- Shared -----------------------------------------------------------------

func (r *Runner) beginScan(t *sched.Thread, resume runnerState) {
	r.scan = r.st.startScan(t)
	r.resume = resume
	r.state = stScan
	t.CurOp, t.CurBlock = "(scan)", -1
}

func (r *Runner) finishOp(t *sched.Thread) bool {
	if r.usedSlow {
		r.st.c.opsSlow.Inc(t.ID)
	} else {
		r.st.c.opsFast.Inc(t.ID)
	}
	v0 := t.VTime()
	if t.Mode == sched.ModeSlow {
		r.st.slowCommit(t)
		// Slow-path publication/teardown is commit work, not block
		// work (the enclosing span, if any, must exclude it).
		t.Trace(sched.TraceCycles, uint64(sched.PhaseTxCommit), t.VTime()-v0)
	}
	t.PopFrame(r.frame)
	r.st.EndOp(t)
	t.TraceOpEnd(prog.RegResult)
	r.st.c.opCycles.Observe(t.ID, uint64(t.VTime()-r.opStartV))
	r.op = nil
	r.state = stIdle
	return true
}

// retireInTx is called by the scheme when a retire arrives inside an active
// segment: the node is parked until the segment (with its unlink) commits.
func (r *Runner) retireInTx(p word.Addr) {
	if !r.inTx {
		panic(fmt.Sprintf("core: retireInTx outside a transaction (%#x)", uint64(p)))
	}
	r.retirePending = append(r.retirePending, p)
}
