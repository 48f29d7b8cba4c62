// Package prog represents data-structure operations the way StackTrack's
// compiler sees them: as a list of basic code blocks with a split
// checkpoint opportunity between every pair of blocks.
//
// A Block is a Go function that performs the block's loads, stores, and
// CASes through the thread's access layer and returns the index of the next
// block (its branch). Operation locals that hold heap pointers live in the
// operation's stack frame or in the simulated register file — never in Go
// variables that outlive the block — which is what makes them visible to
// the StackTrack scanner and restorable after a segment abort.
//
// Calling convention: arguments arrive in registers R1..R3; the result is
// returned in R0 (and must be written there before the final block ends).
package prog

import (
	"stacktrack/internal/cost"
	"stacktrack/internal/metrics"
	"stacktrack/internal/sched"
)

// Done is the block-return value ending the operation.
const Done = -1

// Argument/result register conventions.
const (
	RegResult = 0 // R0: operation result
	RegArg1   = 1 // R1: first argument (key)
	RegArg2   = 2 // R2: second argument (value)
	RegArg3   = 3 // R3: third argument
)

// Block is one basic code block: straight-line code ending in a branch
// (the returned next-block index).
type Block func(t *sched.Thread, f sched.Frame) int

// Block attributes (§5.4–§5.5 of the paper).
const (
	// AttrAtomic marks a block inside a programmer-defined transactional
	// region: the split runtime never commits between two atomic blocks,
	// and exposes registers with a commit when the region ends (§5.5).
	AttrAtomic uint8 = 1 << iota
	// AttrUnsupported marks a block containing an instruction that cannot
	// execute inside a hardware transaction (I/O, system call): the
	// runtime commits the current segment, runs the block
	// non-transactionally, and starts a fresh segment after it (§5.4).
	AttrUnsupported
)

// Op is one data-structure operation in compiled (basic-block) form.
type Op struct {
	// ID uniquely identifies the operation within the program; the split
	// predictor keys its per-segment length table on it (Alg. 2).
	ID int
	// Name is for diagnostics and benchmark output.
	Name string
	// FrameWords is the operation's stack-frame size in words.
	FrameWords int
	// Blocks is the operation body; execution starts at Blocks[0].
	Blocks []Block

	attrs []uint8
	cfg   []BlockInfo
}

// Atomic reports whether block i lies inside a programmer-defined
// transactional region.
func (o *Op) Atomic(i int) bool {
	return i >= 0 && i < len(o.attrs) && o.attrs[i]&AttrAtomic != 0
}

// Unsupported reports whether block i cannot execute transactionally.
func (o *Op) Unsupported(i int) bool {
	return i >= 0 && i < len(o.attrs) && o.attrs[i]&AttrUnsupported != 0
}

// Runner executes operations one basic block at a time so the scheduler can
// interleave threads between blocks. PlainRunner (here) executes without
// transactions; the StackTrack fast/slow runner lives in internal/core.
type Runner interface {
	// Start begins executing op on t. Arguments are already in t's
	// registers.
	Start(t *sched.Thread, op *Op)
	// Step advances the operation by one unit (a basic block, a segment
	// retry, or a scan chunk) and reports whether it completed.
	Step(t *sched.Thread) bool
	// Busy reports whether an operation is in progress.
	Busy() bool
}

// PlainRunner executes operations directly: no transactions, no split
// checkpoints. All baseline schemes (Original, Epoch, Hazards, DTA) use it;
// their per-operation and per-load overheads come from the Reclaimer hooks.
type PlainRunner struct {
	op    *Op
	pc    int
	frame sched.Frame
	busy  bool

	// Hist, when non-nil, receives each completed operation's virtual
	// latency in cycles (the bench harness installs the shared
	// "ops.op_cycles" histogram here).
	Hist *metrics.Histogram

	opStartV cost.Cycles
}

// Start implements Runner.
func (r *PlainRunner) Start(t *sched.Thread, op *Op) {
	if r.busy {
		panic("prog: Start while an operation is in progress")
	}
	r.opStartV = t.VTime()
	t.Scheme.BeginOp(t, op.ID)
	t.Trace(sched.TraceOpStart, uint64(op.ID), 0)
	r.op = op
	r.pc = 0
	r.frame = t.PushFrame(op.FrameWords)
	r.busy = true
}

// Step implements Runner: one basic block per call.
func (r *PlainRunner) Step(t *sched.Thread) bool {
	if !r.busy {
		panic("prog: Step without an operation in progress")
	}
	cur := r.pc
	t.CurOp, t.CurBlock = r.op.Name, cur
	t.Trace(sched.TraceSpanOpen, uint64(r.op.ID), 0)
	t.Charge(cost.Block)
	if t.EffectObs != nil {
		t.EffectObs.BlockStart(t, r.op.Name, cur)
	}
	r.pc = r.op.Blocks[r.pc](t, r.frame)
	if t.EffectObs != nil {
		t.EffectObs.BlockEnd(t, r.op.Name, cur, true)
	}
	if r.pc == Done {
		t.PopFrame(r.frame)
		t.Scheme.EndOp(t)
		t.TraceOpEnd(RegResult)
		t.Trace(sched.TraceSpanClose, uint64(sched.PhaseBlock), 0)
		if r.Hist != nil {
			r.Hist.Observe(t.ID, uint64(t.VTime()-r.opStartV))
		}
		r.busy = false
		return true
	}
	t.Trace(sched.TraceSpanClose, uint64(sched.PhaseBlock), 0)
	return false
}

// Busy implements Runner.
func (r *PlainRunner) Busy() bool { return r.busy }

// Driver adapts a Runner plus a workload source into a sched.Stepper: it
// feeds the next operation into the runner whenever the previous one
// completes.
type Driver struct {
	Runner Runner
	// Next supplies the next operation and its argument registers; ok
	// false ends the thread's workload.
	Next func(t *sched.Thread) (op *Op, args [3]uint64, ok bool)
	// OnDone, if set, observes each completed operation's result (R0).
	OnDone func(t *sched.Thread, op *Op, result uint64)

	cur *Op
}

// Step implements sched.Stepper.
func (d *Driver) Step(t *sched.Thread) bool {
	if !d.Runner.Busy() {
		op, args, ok := d.Next(t)
		if !ok {
			return true
		}
		t.SetReg(RegArg1, args[0])
		t.SetReg(RegArg2, args[1])
		t.SetReg(RegArg3, args[2])
		t.SetReg(RegResult, 0)
		d.cur = op
		d.Runner.Start(t, op)
		return false
	}
	if d.Runner.Step(t) {
		t.OpsDone++
		if d.OnDone != nil {
			d.OnDone(t, d.cur, t.Reg(RegResult))
		}
	}
	return false
}
