package sched

import (
	"fmt"
	"math/bits"

	"stacktrack/internal/cost"
	"stacktrack/internal/mem"
	"stacktrack/internal/metrics"
	"stacktrack/internal/rng"
	"stacktrack/internal/topo"
)

// Stepper advances a thread by one basic block (or one scan chunk, or one
// blocked-wait poll). It returns true when the thread's workload is
// complete. The engine installs one per thread.
type Stepper interface {
	Step(t *Thread) bool
}

// blockedPollCost is the virtual cost of one poll of a blocked thread's
// wake condition (a spin-wait iteration with a pause instruction).
const blockedPollCost cost.Cycles = 400

// hwContext models one hardware context (a hyperthread slot). Its queue
// holds the software threads pinned to it; queue[0] is the current
// occupant. Under oversubscription the scheduler rotates the queue with an
// OS-like timeslice, aborting the outgoing thread's transaction — the
// paper's "timer interrupt clears the cache".
type hwContext struct {
	id         int
	queue      []*Thread
	clock      cost.Cycles // virtual time of this context's timeline
	sliceStart cost.Cycles
}

// Policy decides scheduling: which runnable context steps next, and whether
// the occupant of an oversubscribed context is preempted before it steps.
// The zero policy (nil) is the built-in virtual-time rule: minimum occupant
// vtime wins, preemption on OS-timeslice expiry. internal/explore supplies
// alternative strategies (random walk, PCT) plus record/replay wrappers.
//
// A policy is consulted at exactly two kinds of decision point:
//
//   - Pick: once per scheduler loop iteration, over the current list of
//     runnable context ids (ascending). It returns an index into cands.
//   - Preempt: immediately after Pick, only when the chosen context
//     multiplexes more than one thread. Returning true rotates the
//     occupant out (aborting its transaction) before anything steps.
//
// Policies must be deterministic functions of their own state; everything
// they can observe through the Scheduler accessors is part of the
// deterministic simulation.
type Policy interface {
	Pick(s *Scheduler, cands []int) int
	Preempt(s *Scheduler, ctx int) bool
}

// Scheduler interleaves simulated threads in virtual-time order. It is the
// single driver of all simulated execution; nothing in the simulation runs
// on more than one host goroutine.
type Scheduler struct {
	M    *mem.Memory
	Topo topo.Topology

	threads  []*Thread
	steppers []Stepper
	contexts []*hwContext
	siblings [][]int // per-context list of same-core context ids

	jitter *rng.Rand
	policy Policy
	cands  []int // runnable-candidate buffer (ascending context ids)

	// Incrementally maintained ready structure. A context's runnability
	// only changes when its occupant's virtual clock or its queue changes
	// (step, blocked poll, rotate, retire, crash, AddThread) or when the
	// horizon moves (once per Run call) — so instead of rescanning every
	// context per decision, mutation sites mark their context dirty and
	// only dirty contexts are re-evaluated, in ascending id order, before
	// the next pick. Untouched contexts are pure no-ops under the legacy
	// scan, so the side-effect sequence (horizon rotations, retirements)
	// is bit-identical. occVT caches each ready context's occupant clock
	// so DefaultPick scans a flat array instead of chasing pointers.
	fastReady  bool // topology fits the 64-bit dirty mask
	legacyScan bool // force the per-decision O(contexts) rescan
	fastPick   bool // occVT is fresh (maintained while Run is in fast mode)
	dirtyMask  uint64
	ready      []bool
	occVT      []cost.Cycles

	// Sibling-activity cache: ctxLive[c] mirrors "context c's queue has a
	// live occupant", coreLive[k] counts live contexts on core k. Both are
	// maintained at every queue mutation, making SiblingActive O(1).
	ctxLive  []bool
	coreLive []int32
	coreOf   []int32

	// Decision counter and one-shot pause points (checkpoint support).
	// decisions counts scheduling decisions — one per Run loop iteration
	// that reaches a pick — and aligns with the decision numbers of
	// internal/explore's schedule logs.
	decisions  uint64
	pauseDecOn bool
	pauseDec   uint64
	pauseVTOn  bool
	pauseVT    cost.Cycles
	pausedFlag bool

	ctrPreempts *metrics.Counter
	ctrSwitches *metrics.Counter
	ctrPolls    *metrics.Counter
	ctrCrashes  *metrics.Counter

	obs Observer
}

// NewScheduler creates a scheduler over m with the given topology and
// registers itself as the memory's cache-pressure source.
func NewScheduler(m *mem.Memory, tp topo.Topology, seed uint64) *Scheduler {
	reg := m.Metrics()
	s := &Scheduler{
		M: m, Topo: tp, jitter: rng.New(seed),
		ctrPreempts: reg.Counter("sched.preemptions"),
		ctrSwitches: reg.Counter("sched.context_switches"),
		ctrPolls:    reg.Counter("sched.blocked_polls"),
		ctrCrashes:  reg.Counter("sched.crashes"),
	}
	n := tp.Contexts()
	s.contexts = make([]*hwContext, n)
	s.siblings = make([][]int, n)
	s.fastReady = n <= 64
	s.cands = make([]int, 0, n)
	s.ready = make([]bool, n)
	s.occVT = make([]cost.Cycles, n)
	s.ctxLive = make([]bool, n)
	s.coreLive = make([]int32, tp.Cores)
	s.coreOf = make([]int32, n)
	for i := 0; i < n; i++ {
		s.contexts[i] = &hwContext{id: i}
		s.coreOf[i] = int32(tp.CoreOf(i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && tp.CoreOf(i) == tp.CoreOf(j) {
				s.siblings[i] = append(s.siblings[i], j)
			}
		}
	}
	m.SetPressure(s)
	return s
}

// AddThread registers a thread and its stepper, pinning the thread to a
// hardware context round-robin.
func (s *Scheduler) AddThread(t *Thread, st Stepper) {
	if t.ID != len(s.threads) {
		panic(fmt.Sprintf("sched: thread ids must be dense, got %d want %d", t.ID, len(s.threads)))
	}
	t.hw = s.Topo.HWContextOf(t.ID)
	s.threads = append(s.threads, t)
	s.steppers = append(s.steppers, st)
	ctx := s.contexts[t.hw]
	ctx.queue = append(ctx.queue, t)
	t.running = len(ctx.queue) == 1
	s.setLive(ctx, !ctx.queue[0].done)
	s.markDirty(ctx.id)
}

// SetLegacyScan forces the per-decision O(contexts) candidate rescan
// instead of the incremental ready structure. Both produce bit-identical
// schedules; the rescan is the only path for topologies wider than 64
// contexts, and the bit-identity tests use this knob to check the ready
// structure against it.
func (s *Scheduler) SetLegacyScan(on bool) { s.legacyScan = on }

func (s *Scheduler) markDirty(id int) { s.dirtyMask |= 1 << uint(id) }

// setLive maintains the sibling-activity cache for one context.
func (s *Scheduler) setLive(ctx *hwContext, live bool) {
	if s.ctxLive[ctx.id] != live {
		s.ctxLive[ctx.id] = live
		if live {
			s.coreLive[s.coreOf[ctx.id]]++
		} else {
			s.coreLive[s.coreOf[ctx.id]]--
		}
	}
}

// refreshContext re-evaluates one context's runnability (with runnable's
// usual side effects: retiring finished occupants, rotating past
// out-of-horizon ones) and patches the candidate list and occupant-clock
// cache to match.
func (s *Scheduler) refreshContext(id int, until cost.Cycles) {
	ok := s.runnable(s.contexts[id], until)
	if ok {
		s.occVT[id] = s.contexts[id].queue[0].vtime
	}
	if ok == s.ready[id] {
		return
	}
	s.ready[id] = ok
	if ok {
		i := len(s.cands)
		s.cands = append(s.cands, 0)
		for i > 0 && s.cands[i-1] > id {
			s.cands[i] = s.cands[i-1]
			i--
		}
		s.cands[i] = id
	} else {
		for i, c := range s.cands {
			if c == id {
				s.cands = append(s.cands[:i], s.cands[i+1:]...)
				break
			}
		}
	}
}

// Threads returns the registered threads (the scanner's activity array).
func (s *Scheduler) Threads() []*Thread { return s.threads }

// SetPolicy installs a scheduling policy; nil restores the built-in
// virtual-time rule. Install before Run — switching mid-run is legal but
// changes the interleaving from that point on.
func (s *Scheduler) SetPolicy(p Policy) { s.policy = p }

// --- Policy observation accessors -----------------------------------------

// NumContexts returns the number of hardware contexts.
func (s *Scheduler) NumContexts() int { return len(s.contexts) }

// QueueLen returns how many threads are queued on context ctx (the occupant
// included).
func (s *Scheduler) QueueLen(ctx int) int { return len(s.contexts[ctx].queue) }

// QueueThreadID returns the id of the thread at queue position pos of
// context ctx (position 0 is the occupant), or -1 if out of range.
func (s *Scheduler) QueueThreadID(ctx, pos int) int {
	q := s.contexts[ctx].queue
	if pos < 0 || pos >= len(q) {
		return -1
	}
	return q[pos].ID
}

// OccupantID returns the thread id currently occupying context ctx, or -1
// if its queue is empty.
func (s *Scheduler) OccupantID(ctx int) int { return s.QueueThreadID(ctx, 0) }

// OccupantVTime returns the occupant thread's virtual clock (0 if empty).
func (s *Scheduler) OccupantVTime(ctx int) cost.Cycles {
	q := s.contexts[ctx].queue
	if len(q) == 0 {
		return 0
	}
	return q[0].vtime
}

// SliceElapsed returns how long the occupant of ctx has been on-CPU in this
// timeslice (virtual cycles).
func (s *Scheduler) SliceElapsed(ctx int) cost.Cycles {
	c := s.contexts[ctx]
	if len(c.queue) == 0 || c.queue[0].vtime < c.sliceStart {
		return 0
	}
	return c.queue[0].vtime - c.sliceStart
}

// DefaultPick is the built-in virtual-time rule: the candidate whose
// occupant has the minimum virtual clock, ties broken by context id (cands
// is ascending, so the first minimum wins).
func (s *Scheduler) DefaultPick(cands []int) int {
	best := 0
	if s.fastPick && len(cands) > 0 {
		// Fast mode keeps every candidate's occupant clock in a flat
		// array, so the min scan is one load per candidate instead of
		// three dependent pointer dereferences.
		bv := s.occVT[cands[0]]
		for i := 1; i < len(cands); i++ {
			if v := s.occVT[cands[i]]; v < bv {
				bv, best = v, i
			}
		}
		return best
	}
	for i := 1; i < len(cands); i++ {
		if s.contexts[cands[i]].queue[0].vtime < s.contexts[cands[best]].queue[0].vtime {
			best = i
		}
	}
	return best
}

// DefaultPreempt is the built-in OS rule: rotate when the occupant has
// exhausted its timeslice quantum.
func (s *Scheduler) DefaultPreempt(ctx int) bool {
	c := s.contexts[ctx]
	return c.queue[0].vtime-c.sliceStart >= cost.TimesliceQuantum
}

// SiblingActive implements mem.Pressure: whether a sibling hyperthread of
// tid's core currently hosts a live thread. Threads not registered with the
// scheduler have no siblings.
func (s *Scheduler) SiblingActive(tid int) bool {
	if tid >= len(s.threads) {
		return false
	}
	return s.siblingLive(s.threads[tid].hw)
}

// siblingLive is SiblingActive keyed by hardware context (the form the
// run loop uses: it already holds the thread, so no id lookup).
func (s *Scheduler) siblingLive(hw int) bool {
	n := s.coreLive[s.coreOf[hw]]
	if s.ctxLive[hw] {
		n--
	}
	return n > 0
}

// Oversubscribed reports whether any context multiplexes several threads.
func (s *Scheduler) Oversubscribed() bool {
	return len(s.threads) > s.Topo.Contexts()
}

// Crash kills thread tid where it stands: it is never scheduled again, its
// in-flight transaction dies with it (the hardware discards an interrupted
// transaction), but its simulated stack, registers, and activity word keep
// whatever values they had — exactly what the memory-reclamation schemes
// must now cope with. Epoch-style schemes wait on it forever; scan- and
// pointer-based schemes merely treat its last exposed references as live.
func (s *Scheduler) Crash(tid int) {
	if tid >= len(s.threads) {
		return
	}
	t := s.threads[tid]
	if t.done || t.crashed {
		return
	}
	s.M.AbortTx(tid, mem.Preempt)
	t.crashed = true
	s.ctrCrashes.Inc(tid)
	if s.obs != nil {
		s.obs.ThreadCrash(tid)
	}
	ctx := s.contexts[t.hw]
	for i, q := range ctx.queue {
		if q == t {
			ctx.queue = append(ctx.queue[:i], ctx.queue[i+1:]...)
			if i == 0 {
				s.switchIn(ctx, 0)
			}
			break
		}
	}
	s.markDirty(ctx.id)
}

// Decisions returns how many scheduling decisions the run has made so
// far. The count aligns with internal/explore's schedule-log decision
// numbers: decision N is the (N+1)-th pick of the run.
func (s *Scheduler) Decisions() uint64 { return s.decisions }

// PauseAtDecision arms a one-shot pause: Run returns just before making
// decision n (so exactly n decisions have been made), at a block boundary
// where no thread is mid-access. Taking a snapshot there and resuming —
// or restoring and resuming elsewhere — is bit-exact, because nothing is
// consumed between the pause check and the pick.
func (s *Scheduler) PauseAtDecision(n uint64) { s.pauseDecOn, s.pauseDec = true, n }

// PauseAtVTime arms a one-shot pause at the first decision boundary where
// every runnable thread's virtual clock has reached v ("the first safe
// boundary at or after v").
func (s *Scheduler) PauseAtVTime(v cost.Cycles) { s.pauseVTOn, s.pauseVT = true, v }

// ClearPause disarms any armed pause point.
func (s *Scheduler) ClearPause() { s.pauseDecOn, s.pauseVTOn = false, false }

// Paused reports whether the last Run call returned because an armed
// pause point fired (rather than reaching the horizon). The pause is
// one-shot: calling Run again continues past it.
func (s *Scheduler) Paused() bool { return s.pausedFlag }

// Run steps threads until every live thread's virtual clock reaches the
// `until` cycle count or all steppers report completion. It may be called
// repeatedly with increasing horizons (warmup, then measurement).
func (s *Scheduler) Run(until cost.Cycles) {
	s.pausedFlag = false
	fast := s.fastReady && !s.legacyScan
	s.fastPick = fast
	if fast {
		// The horizon moved (and anything may have mutated between Run
		// calls): rebuild the ready set with a full ascending scan. This
		// reproduces exactly the side effects the legacy scan would have
		// had on its first iteration.
		s.cands = s.cands[:0]
		for i := range s.ready {
			s.ready[i] = false
		}
		for i := range s.contexts {
			s.refreshContext(i, until)
		}
		s.dirtyMask = 0
	}
	for {
		var cands []int
		if fast {
			if m := s.dirtyMask; m != 0 {
				// Re-evaluate only the contexts touched since the last
				// decision, in ascending id order — the same order (and
				// therefore the same rotate/retire side-effect sequence)
				// the legacy full scan produces, because clean contexts
				// contribute no side effects.
				for m != 0 {
					id := bits.TrailingZeros64(m)
					m &^= 1 << uint(id)
					s.refreshContext(id, until)
				}
				s.dirtyMask = 0
			}
			cands = s.cands
		} else {
			cands = s.runnableContexts(until)
		}
		if len(cands) == 0 {
			return
		}
		if s.pauseDecOn && s.decisions >= s.pauseDec {
			s.pauseDecOn = false
			s.pausedFlag = true
			return
		}
		if s.pauseVTOn {
			min := s.contexts[cands[s.DefaultPick(cands)]].queue[0].vtime
			if min >= s.pauseVT {
				s.pauseVTOn = false
				s.pausedFlag = true
				return
			}
		}
		s.decisions++
		var i int
		if s.policy != nil {
			i = s.policy.Pick(s, cands)
			if i < 0 || i >= len(cands) {
				i = s.DefaultPick(cands)
			}
		} else {
			i = s.DefaultPick(cands)
		}
		ctx := s.contexts[cands[i]]
		t := ctx.queue[0]

		// OS timeslice expiry (or a policy-forced context switch): switch
		// in the next waiter.
		if len(ctx.queue) > 1 {
			var pre bool
			if s.policy != nil {
				pre = s.policy.Preempt(s, ctx.id)
			} else {
				pre = s.DefaultPreempt(ctx.id)
			}
			if pre {
				s.rotate(ctx, until)
				continue
			}
		}

		if t.Blocked != nil {
			if t.Blocked() {
				t.Blocked = nil
				t.pollBackoff = 0
			} else {
				// Spin-wait with exponential backoff (pause loop
				// escalating toward a yield), so a wait that never
				// completes — e.g. on a crashed thread — does not
				// dominate the simulation.
				c := blockedPollCost << t.pollBackoff
				if t.pollBackoff < 12 {
					t.pollBackoff++
				}
				t.Charge(c)
				s.ctrPolls.Inc(t.ID)
				if t.Prof != nil {
					t.Prof.AddPhase(metrics.PhaseBlocked, uint64(c))
				}
				ctx.clock = t.vtime
				s.markDirty(ctx.id)
				continue
			}
		}

		before := t.vtime
		if s.steppers[t.ID].Step(t) {
			t.done = true
			s.retireFromContext(ctx, until)
			continue
		}
		// One sibling-activity lookup feeds both the HT-slowdown charge and
		// the probabilistic eviction below.
		sib := s.siblingLive(t.hw)
		if sib && s.Topo.HTSlowdown > 0 {
			// Shared execution units: the step takes longer while the
			// sibling hyperthread is busy.
			extra := cost.Cycles(float64(t.vtime-before) * s.Topo.HTSlowdown)
			t.Charge(extra)
			if t.Prof != nil {
				t.Prof.AddPhase(metrics.PhaseHTSlow, uint64(extra))
			}
		}
		if sib {
			s.maybeSiblingEvict(t)
		}
		ctx.clock = t.vtime
		s.markDirty(ctx.id)
	}
}

// runnableContexts collects the ids of every context with an occupant that
// can step before the horizon, in ascending context order. (It shares the
// side effects of runnable: finished and out-of-horizon occupants are
// retired or rotated past while gathering.)
func (s *Scheduler) runnableContexts(until cost.Cycles) []int {
	s.cands = s.cands[:0]
	for _, ctx := range s.contexts {
		if s.runnable(ctx, until) {
			s.cands = append(s.cands, ctx.id)
		}
	}
	return s.cands
}

// runnable reports whether ctx has an occupant that can step before the
// horizon, rotating past finished or out-of-horizon occupants so waiters
// behind them still get CPU.
func (s *Scheduler) runnable(ctx *hwContext, until cost.Cycles) bool {
	for len(ctx.queue) > 0 {
		t := ctx.queue[0]
		if t.done {
			s.retireFromContext(ctx, until)
			continue
		}
		if t.vtime >= until {
			// Horizon reached for the occupant; let a waiter run if
			// one still has budget.
			if s.anyWaiterBelow(ctx, until) {
				s.rotate(ctx, until)
				continue
			}
			return false
		}
		return true
	}
	return false
}

func (s *Scheduler) anyWaiterBelow(ctx *hwContext, until cost.Cycles) bool {
	for _, w := range ctx.queue[1:] {
		if !w.done && w.vtime < until {
			return true
		}
	}
	return false
}

// rotate performs a context switch: the occupant's transaction aborts (the
// timer interrupt cleared the cache), it pays the switch cost and moves to
// the back; the next thread switches in, its clock catching up to the
// context's timeline — modelling the time it spent descheduled.
func (s *Scheduler) rotate(ctx *hwContext, until cost.Cycles) {
	out := ctx.queue[0]
	s.M.AbortTx(out.ID, mem.Preempt)
	out.Trace(TracePreempt, 0)
	out.Charge(cost.ContextSwitch)
	s.ctrPreempts.Inc(out.ID)
	if out.Prof != nil {
		out.Prof.AddPhase(metrics.PhasePreempt, uint64(cost.ContextSwitch))
	}
	out.running = false
	ctx.clock = maxCycles(ctx.clock, out.vtime)
	copy(ctx.queue, ctx.queue[1:])
	ctx.queue[len(ctx.queue)-1] = out
	s.switchIn(ctx, until)
	if s.obs != nil {
		s.obs.ThreadHandoff(out.ID, s.OccupantID(ctx.id))
	}
}

// retireFromContext removes a finished occupant and switches in the next.
func (s *Scheduler) retireFromContext(ctx *hwContext, until cost.Cycles) {
	out := ctx.queue[0]
	out.running = false
	ctx.clock = maxCycles(ctx.clock, out.vtime)
	ctx.queue = ctx.queue[1:]
	s.switchIn(ctx, until)
	if s.obs != nil {
		s.obs.ThreadHandoff(out.ID, s.OccupantID(ctx.id))
	}
}

func (s *Scheduler) switchIn(ctx *hwContext, until cost.Cycles) {
	s.markDirty(ctx.id)
	if len(ctx.queue) == 0 {
		s.setLive(ctx, false)
		return
	}
	s.setLive(ctx, !ctx.queue[0].done)
	in := ctx.queue[0]
	was := in.vtime
	in.vtime = maxCycles(in.vtime, ctx.clock) + cost.ContextSwitch
	s.ctrSwitches.Inc(in.ID)
	if in.Prof != nil {
		// The jump covers descheduled time plus the switch-in cost.
		in.Prof.AddPhase(metrics.PhasePreempt, uint64(in.vtime-was))
	}
	in.running = true
	ctx.sliceStart = in.vtime
	ctx.clock = in.vtime
	_ = until
}

// maybeSiblingEvict applies the probabilistic capacity-eviction term: when
// the sibling hyperthread is active, a transaction loses a tracked line
// with probability proportional to its footprint (shared L1 pressure).
// The caller has already established that the sibling is active; the
// random draw happens iff a transaction is live, exactly as before.
func (s *Scheduler) maybeSiblingEvict(t *Thread) {
	tx := t.Tx
	if tx == nil || !tx.Active() {
		return
	}
	p := s.Topo.SiblingEvictRate * float64(tx.Footprint()) / float64(s.Topo.L1Lines)
	if t.Rng.Bool(p) {
		s.M.Evict(tx)
	}
}

func maxCycles(a, b cost.Cycles) cost.Cycles {
	if a > b {
		return a
	}
	return b
}
