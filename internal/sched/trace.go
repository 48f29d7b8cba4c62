package sched

import "stacktrack/internal/cost"

// The lifecycle seam. The runners, scanners, reclamation schemes and the
// scheduler report every lifecycle event — operations, segments, scans,
// frees, preemptions, hand-offs, crashes and cycle attribution — through
// the thread's Tracer (nil by default, costing one branch per site).
// Three consumers read it: internal/trace's text recorder (stsim -trace)
// and cycle profiler (stsim -profile), and internal/sanitize's scheduler
// happens-before edges. Per-access hooks stay separate: mem.Observer sees
// every load and store, EffectObserver every register and frame-slot
// access, and alloc.Observer must fire inside Free around its poison
// stores.

// TraceKind classifies a lifecycle event.
type TraceKind uint8

// Event kinds. Each event carries an argument and, where the event's
// work was charged to the thread, the cycles it cost (0 otherwise).
const (
	// TraceOpStart: an operation began; arg = operation id.
	TraceOpStart TraceKind = iota
	// TraceOpEnd: an operation completed; arg = result register.
	TraceOpEnd
	// TraceSegCommit: a transaction segment committed; arg = its length
	// in basic blocks; cycles = the commit work (split bookkeeping,
	// register exposure, the commit itself).
	TraceSegCommit
	// TraceSegAbort: a segment aborted; arg = mem.AbortReason; cycles =
	// the abort handling.
	TraceSegAbort
	// TraceSlowPath: the operation fell back to the software slow path;
	// arg = program counter of the matching checkpoint.
	TraceSlowPath
	// TraceScanStart: SCAN_AND_FREE began; arg = free-set size.
	TraceScanStart
	// TraceScanEnd: the scan completed; arg = nodes freed.
	TraceScanEnd
	// TraceFree: one object returned to the allocator; arg = address;
	// cycles = the free.
	TraceFree
	// TracePreempt: the thread was switched out by the OS timeslice;
	// cycles = its side of the context switch.
	TracePreempt
	// TraceBlocked: the thread parked on a wait condition (epoch).
	TraceBlocked
	// TraceHandoff: the thread left its hardware context (preempted or
	// finished) and another became the occupant; arg = the incoming
	// thread's id, or NoThread when the context emptied. Emitted on the
	// outgoing thread, after the switch. A hand-off is a happens-before
	// edge: the OS scheduler's own synchronization orders everything the
	// outgoing thread did before everything the incoming one does next.
	TraceHandoff
	// TraceCrash: the thread was killed mid-run. Emitted before it leaves
	// its context's queue.
	TraceCrash
	// TraceCycles: cycles were charged to phase Phase(arg) — a fence, a
	// segment begin, slow-path commit work, blocked polling, hyperthread
	// slowdown, or the switch-in side of a context switch.
	TraceCycles
	// TraceSpanOpen: an attribution span began (a basic block, operation
	// setup, or a scan chunk); arg = the operation id for a block span.
	// Cycles the span's events claim are excluded from its own total.
	TraceSpanOpen
	// TraceSpanClose: the innermost open span ended; arg = the Phase its
	// self-cycles belong to.
	TraceSpanClose
)

// NoThread is TraceHandoff's argument when the context emptied.
const NoThread = ^uint64(0)

var kindNames = [...]string{
	"op-start", "op-end", "seg-commit", "seg-abort", "slow-path", "scan-start",
	"scan-end", "free", "preempt", "blocked", "handoff", "crash", "cycles",
	"span-open", "span-close",
}

// String returns the kind's name.
func (k TraceKind) String() string {
	if int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// Phase classifies where a thread's simulated cycles went: the cycle
// profiler's attribution buckets.
type Phase uint8

const (
	// PhaseBlock is user program-block execution (self-cycles only:
	// fences, frees and tx bookkeeping inside a block are attributed
	// to their own phases).
	PhaseBlock Phase = iota
	// PhaseTxBegin is hardware-transaction begin (checkpoint + begin
	// cost, including SPLIT_INIT setup stores).
	PhaseTxBegin
	// PhaseTxCommit is successful commit work (split bookkeeping
	// stores, register exposure, the commit itself).
	PhaseTxCommit
	// PhaseTxAbort is abort handling and retry overhead.
	PhaseTxAbort
	// PhaseScan is SCAN_AND_FREE stack scanning.
	PhaseScan
	// PhaseFree is object reclamation (the free itself, not the scan
	// that decided it).
	PhaseFree
	// PhaseFence is memory-fence cost (hazard-pointer style fences,
	// slow-path publication fences).
	PhaseFence
	// PhasePreempt is context-switch overhead on both sides of a
	// preemption.
	PhasePreempt
	// PhaseHTSlow is the extra cycles charged when hyperthread
	// siblings share a core.
	PhaseHTSlow
	// PhaseBlocked is busy-poll cost while blocked on a runtime
	// condition (e.g. an empty queue in a blocking workload).
	PhaseBlocked

	// NumPhases bounds the enum for array sizing.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"block", "tx-begin", "tx-commit", "tx-abort", "scan",
	"free", "fence", "preempt", "ht-slowdown", "blocked",
}

// String renders the phase as its folded-stack frame name.
func (p Phase) String() string {
	if p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// Tracer receives lifecycle events. Implementations must be cheap; they
// run on the simulation's hot path. They observe only: a tracer must not
// change simulated state, so installing one cannot change results.
type Tracer interface {
	TraceEvent(t *Thread, k TraceKind, arg uint64, c cost.Cycles)
}

// Trace emits an event if a tracer is installed.
func (t *Thread) Trace(k TraceKind, arg uint64, c cost.Cycles) {
	if t.Tracer != nil {
		t.Tracer.TraceEvent(t, k, arg, c)
	}
}

// TraceOpEnd emits TraceOpEnd with register reg (the result register) as
// its argument. The register is read only when a tracer is installed,
// and directly, so the effect oracle sees no access outside a block.
func (t *Thread) TraceOpEnd(reg int) {
	if t.Tracer != nil {
		t.Tracer.TraceEvent(t, TraceOpEnd, t.regs[reg], 0)
	}
}
