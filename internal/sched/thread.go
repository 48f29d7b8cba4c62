// Package sched implements the discrete-event scheduler and the simulated
// thread contexts of the machine.
//
// A simulated thread owns:
//
//   - a register file (NumRegs working registers, Go-side) plus an exposed
//     register region in simulated memory that split commits publish to;
//   - a stack region in simulated memory where operation frames live, so
//     the StackTrack scanner can read local pointer variables through the
//     same coherence machinery that dooms conflicting transactions;
//   - a control line in simulated memory holding the split counter,
//     operation counter, exposed stack pointer, and activity word used by
//     the scan-consistency protocol (Algorithm 1 of the paper);
//   - a reference-set region used by the slow-path fallback (Algorithm 5);
//   - a virtual clock, advanced by the cost model on every action.
//
// Threads are stepped one basic block at a time by the Scheduler, in
// virtual-time order. All simulated state is plain Go data: simulated
// concurrency is interleaving chosen by the scheduler, never host
// parallelism, which makes every run deterministic for a given seed.
package sched

import (
	"fmt"

	"stacktrack/internal/alloc"
	"stacktrack/internal/cost"
	"stacktrack/internal/mem"
	"stacktrack/internal/rng"
	"stacktrack/internal/word"
)

const (
	// NumRegs is the size of the simulated register file (x86-64 GPRs).
	NumRegs = 16
	// StackWords is the per-thread simulated stack size.
	StackWords = 512
	// RefsWords is the per-thread slow-path reference-set capacity.
	RefsWords = 4096

	// Control-line word offsets (one cache line per thread).
	ctrlSplits   = 0 // committed split-segment counter (Alg. 1/2)
	ctrlOperCnt  = 1 // operation counter, bumped at op start and finish
	ctrlSP       = 2 // exposed stack pointer (words above stack base)
	ctrlActivity = 3 // current op id + 1, or 0 when idle
	ctrlRefsLen  = 4 // slow-path reference-set length
	ctrlWords    = 8
)

// Mode selects how a thread's memory accesses behave.
type Mode uint8

const (
	// ModePlain: direct, non-transactional accesses (baseline schemes and
	// the reclaiming scanner).
	ModePlain Mode = iota
	// ModeFast: accesses run inside the current hardware transaction.
	ModeFast
	// ModeSlow: accesses are instrumented by the slow-path fallback
	// (SLOW_READ / SLOW_WRITE reference-set protocol).
	ModeSlow
)

// SlowAccessor instruments slow-path memory accesses. The StackTrack core
// installs one; other schemes never enter ModeSlow.
type SlowAccessor interface {
	SlowRead(t *Thread, a word.Addr) uint64
	SlowWrite(t *Thread, a word.Addr, v uint64)
	SlowCAS(t *Thread, a word.Addr, old, new uint64) bool
}

// AbortError is panicked by transactional accesses when the enclosing
// hardware transaction aborts; the fast-path runner recovers it and restarts
// the segment. It never escapes the runner.
type AbortError struct {
	Reason mem.AbortReason
}

func (e AbortError) Error() string {
	return fmt.Sprintf("hardware transaction aborted: %s", e.Reason)
}

// Thread is a simulated thread context.
type Thread struct {
	ID int

	M *mem.Memory
	A *alloc.Allocator

	// Simulated-memory regions (static allocations).
	RegsBase  word.Addr
	StackBase word.Addr
	CtrlBase  word.Addr
	RefsBase  word.Addr

	// Working register file and stack pointer, the analogue of values
	// held in hardware registers: private until exposed.
	regs [NumRegs]uint64
	sp   int

	// Virtual clock.
	vtime cost.Cycles

	// RNG stream for workload and scheduling jitter.
	Rng *rng.Rand

	Mode Mode
	Tx   *mem.Tx
	Slow SlowAccessor

	// Scheme is the memory-reclamation scheme driving ProtectLoad/Retire.
	Scheme Reclaimer

	// TrackSP: maintain the exposed stack pointer on frame push/pop (only
	// the StackTrack runners need it).
	TrackSP bool

	// Blocked, when non-nil, parks the thread until the condition holds
	// (used by the epoch scheme's wait-for-quiescence).
	Blocked func() bool

	// Tracer, when non-nil, receives lifecycle events (see trace.go).
	Tracer Tracer

	// EffectObs, when non-nil, receives register/frame access events for
	// the dynamic effect oracle (see effects.go). Purely observational,
	// like Tracer.
	EffectObs EffectObserver

	// Scheduler bookkeeping.
	hw          int // hardware context index
	running     bool
	done        bool
	crashed     bool
	pollBackoff uint8

	txAllocs []word.Addr

	// CurOp and CurBlock name the operation and basic block the thread is
	// currently executing, for diagnostic reports (the sanitizer's access
	// sites). Maintained by the runners; purely observational — never read
	// by simulation logic and not part of snapshot state.
	CurOp    string
	CurBlock int

	// Stats.
	OpsDone   uint64
	UAFReads  uint64 // poison values observed by loads (validation mode)
	Validate  bool   // enable poison detection on loads
	uafReport func(t *Thread, a word.Addr)
}

// NewThread wires a thread context, carving its static regions out of the
// allocator. Threads must be created before any heap allocation.
func NewThread(id int, m *mem.Memory, a *alloc.Allocator, seed uint64) *Thread {
	t := &Thread{
		ID:        id,
		M:         m,
		A:         a,
		RegsBase:  a.Static(NumRegs),
		StackBase: a.Static(StackWords),
		CtrlBase:  a.Static(ctrlWords),
		RefsBase:  a.Static(RefsWords),
		Rng:       rng.New(seed),
	}
	return t
}

// VTime returns the thread's virtual clock.
func (t *Thread) VTime() cost.Cycles { return t.vtime }

// Charge advances the thread's virtual clock by c cycles.
func (t *Thread) Charge(c cost.Cycles) { t.vtime += c }

// Done reports whether the thread has finished its workload. A crashed
// thread is NOT done: to every reclamation scheme it looks like a thread
// that is forever mid-operation — the failure mode the paper's §2 model
// admits ("threads ... may crash during the computation").
func (t *Thread) Done() bool { return t.done }

// Crashed reports whether the thread was killed mid-execution.
func (t *Thread) Crashed() bool { return t.crashed }

// SetDone marks the thread finished; the scheduler stops stepping it.
func (t *Thread) SetDone() { t.done = true }

// HWContext returns the hardware context this thread is pinned to.
func (t *Thread) HWContext() int { return t.hw }

// SetUAFReporter installs a callback invoked when a validated load observes
// the poison pattern (use-after-free detection).
func (t *Thread) SetUAFReporter(f func(t *Thread, a word.Addr)) { t.uafReport = f }

// --- Memory access layer -------------------------------------------------

// chargeMiss adds the coherence-miss penalty when an access missed.
func (t *Thread) chargeMiss(miss bool) {
	if miss {
		t.vtime += cost.Miss
	}
}

// Load reads one simulated word according to the thread's current mode.
// In ModeFast it panics with AbortError if the transaction aborts.
func (t *Thread) Load(a word.Addr) uint64 {
	var v uint64
	switch t.Mode {
	case ModeFast:
		t.vtime += cost.Load
		val, miss, reason := t.M.TxRead(t.Tx, a)
		if reason != mem.NoAbort {
			panic(AbortError{Reason: reason})
		}
		t.chargeMiss(miss)
		v = val
	case ModeSlow:
		v = t.Slow.SlowRead(t, a)
	default:
		t.vtime += cost.Load
		val, miss := t.M.ReadPlain(t.ID, a)
		t.chargeMiss(miss)
		v = val
	}
	if t.Validate && word.IsPoison(v) {
		t.UAFReads++
		if t.uafReport != nil {
			t.uafReport(t, a)
		}
	}
	return v
}

// Store writes one simulated word according to the thread's current mode.
func (t *Thread) Store(a word.Addr, v uint64) {
	switch t.Mode {
	case ModeFast:
		t.vtime += cost.Store
		miss, reason := t.M.TxWrite(t.Tx, a, v)
		if reason != mem.NoAbort {
			panic(AbortError{Reason: reason})
		}
		t.chargeMiss(miss)
	case ModeSlow:
		t.Slow.SlowWrite(t, a, v)
	default:
		t.vtime += cost.Store
		t.chargeMiss(t.M.WritePlain(t.ID, a, v))
	}
}

// CAS performs a compare-and-swap according to the current mode. Inside a
// hardware transaction it is just a read and a conditional buffered write —
// one of HTM's advantages the paper leverages.
func (t *Thread) CAS(a word.Addr, old, new uint64) bool {
	switch t.Mode {
	case ModeFast:
		t.vtime += cost.Load + cost.Store
		v, miss, reason := t.M.TxRead(t.Tx, a)
		if reason != mem.NoAbort {
			panic(AbortError{Reason: reason})
		}
		t.chargeMiss(miss)
		if v != old {
			return false
		}
		miss, reason = t.M.TxWrite(t.Tx, a, new)
		if reason != mem.NoAbort {
			panic(AbortError{Reason: reason})
		}
		t.chargeMiss(miss)
		return true
	case ModeSlow:
		return t.Slow.SlowCAS(t, a, old, new)
	default:
		return t.CASDirect(a, old, new)
	}
}

// LoadLocal reads a thread-local (stack/register-region) word: inside a
// hardware transaction it is transactional, so locals roll back on abort
// and commit atomically for scanners; on the slow path it is a plain load —
// the slow-path instrumentation (Algorithm 5) covers shared accesses only,
// never the thread's own stack.
func (t *Thread) LoadLocal(a word.Addr) uint64 {
	if t.Mode == ModeFast {
		return t.Load(a)
	}
	t.vtime += cost.Load
	v, miss := t.M.ReadPlain(t.ID, a)
	t.chargeMiss(miss)
	return v
}

// StoreLocal writes a thread-local word (see LoadLocal).
func (t *Thread) StoreLocal(a word.Addr, v uint64) {
	if t.Mode == ModeFast {
		t.Store(a, v)
		return
	}
	t.vtime += cost.Store
	t.chargeMiss(t.M.WritePlain(t.ID, a, v))
}

// CASDirect is a non-transactional compare-and-swap regardless of mode.
// The slow-path accessor uses it after SLOW_READ protection; calling t.CAS
// there would recurse into the accessor.
func (t *Thread) CASDirect(a word.Addr, old, new uint64) bool {
	t.vtime += cost.CAS
	ok, miss := t.M.CASPlain(t.ID, a, old, new)
	t.chargeMiss(miss)
	return ok
}

// LoadPlain bypasses the mode dispatch: a non-transactional read regardless
// of mode (used by reclaimers scanning other threads' state).
func (t *Thread) LoadPlain(a word.Addr) uint64 {
	t.vtime += cost.Load
	v, miss := t.M.ReadPlain(t.ID, a)
	t.chargeMiss(miss)
	return v
}

// StorePlain is a non-transactional write regardless of mode.
func (t *Thread) StorePlain(a word.Addr, v uint64) {
	t.vtime += cost.Store
	t.chargeMiss(t.M.WritePlain(t.ID, a, v))
}

// Fence charges a full memory fence.
func (t *Thread) Fence() {
	t.vtime += cost.Fence
	t.Trace(TraceCycles, uint64(PhaseFence), cost.Fence)
}

// --- Reclamation hooks ----------------------------------------------------

// ProtectLoad loads the pointer stored at src under the current scheme's
// protection protocol (hazard publication for HP, anchor accounting for
// DTA, nothing extra for epoch/leak/StackTrack) and returns the loaded word.
func (t *Thread) ProtectLoad(slot int, src word.Addr) uint64 {
	return t.Scheme.ProtectLoad(t, slot, src)
}

// Protect hands a node the thread already safely holds to an additional
// guard slot (see Reclaimer.Protect).
func (t *Thread) Protect(slot int, node word.Addr) { t.Scheme.Protect(t, slot, node) }

// Retire hands an unlinked node to the reclamation scheme.
func (t *Thread) Retire(p word.Addr) { t.Scheme.Retire(t, p) }

// --- Allocation ------------------------------------------------------------

// TxAllocs records allocations performed inside the current hardware
// transaction. The allocator is host-side state that a simulated abort
// cannot roll back, so the fast-path runner compensates: it frees these on
// abort and forgets them on commit (on real HTM, malloc metadata inside the
// transaction rolls back with everything else).
func (t *Thread) TxAllocs() []word.Addr { return t.txAllocs }

// ClearTxAllocs forgets the recorded allocations (segment committed).
func (t *Thread) ClearTxAllocs() { t.txAllocs = t.txAllocs[:0] }

// RollbackTxAllocs returns the recorded allocations to the allocator
// (segment aborted) without charging simulated time: on hardware this
// happens implicitly with the abort.
func (t *Thread) RollbackTxAllocs() {
	for _, p := range t.txAllocs {
		t.A.Unalloc(p)
	}
	t.txAllocs = t.txAllocs[:0]
}

// Alloc allocates a zeroed object of n words, charging the allocation cost.
// It panics on simulated OOM.
func (t *Thread) Alloc(n int) word.Addr {
	t.vtime += cost.Alloc
	p := t.A.Alloc(t.ID, n)
	if t.Mode == ModeFast {
		t.txAllocs = append(t.txAllocs, p)
	}
	return p
}

// FreeNow immediately returns an object to the allocator (used by
// reclaimers once an object is proven unreachable).
func (t *Thread) FreeNow(p word.Addr) {
	t.Trace(TraceFree, uint64(p), cost.Free)
	t.vtime += cost.Free
	t.A.Free(t.ID, p)
}

// --- Registers -------------------------------------------------------------

// Reg returns working register i.
func (t *Thread) Reg(i int) uint64 {
	if t.EffectObs != nil {
		t.EffectObs.RegRead(t, i)
	}
	return t.regs[i]
}

// SetReg sets working register i.
func (t *Thread) SetReg(i int, v uint64) {
	if t.EffectObs != nil {
		t.EffectObs.RegWrite(t, i, v)
	}
	t.regs[i] = v
}

// RegSnapshot copies the register file out (segment-start snapshot).
func (t *Thread) RegSnapshot() [NumRegs]uint64 { return t.regs }

// RestoreRegs restores the register file from a snapshot (segment abort).
func (t *Thread) RestoreRegs(s [NumRegs]uint64) { t.regs = s }

// ExposeRegisters publishes the working register file to the thread's
// exposed register region through the current access mode. On the fast path
// the writes are buffered and become visible atomically at the segment
// commit (Algorithm 2, EXPOSE_REGISTERS).
func (t *Thread) ExposeRegisters() {
	for i := 0; i < NumRegs; i++ {
		t.StoreLocal(t.RegsBase+word.Addr(i), t.regs[i])
	}
}

// --- Control words ----------------------------------------------------------

// SplitsAddr returns the address of the thread's split counter.
func (t *Thread) SplitsAddr() word.Addr { return t.CtrlBase + ctrlSplits }

// OperCntAddr returns the address of the thread's operation counter.
func (t *Thread) OperCntAddr() word.Addr { return t.CtrlBase + ctrlOperCnt }

// SPAddr returns the address of the thread's exposed stack pointer.
func (t *Thread) SPAddr() word.Addr { return t.CtrlBase + ctrlSP }

// ActivityAddr returns the address of the thread's activity word.
func (t *Thread) ActivityAddr() word.Addr { return t.CtrlBase + ctrlActivity }

// RefsLenAddr returns the address of the slow-path reference-set length.
func (t *Thread) RefsLenAddr() word.Addr { return t.CtrlBase + ctrlRefsLen }
