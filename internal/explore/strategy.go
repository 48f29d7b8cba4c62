package explore

// Scheduling strategies. Each is a sched.Policy: consulted once per
// scheduler loop iteration for which runnable context steps next (Pick) and
// — when that context multiplexes several threads — whether to preempt its
// occupant first (Preempt). All randomness comes from the strategy's own
// seeded stream, never the host, so a (strategy, seed) pair is replayable.

import (
	"math"

	"stacktrack/internal/rng"
	"stacktrack/internal/sched"
)

// VTime is the scheduler's built-in rule as an explicit strategy: minimum
// occupant virtual time wins, preemption on OS-quantum expiry. Recording a
// vtime run produces an empty decision list (nothing deviates), which makes
// it the cheapest baseline: its schedule log is just the configuration.
type VTime struct{}

// Pick implements sched.Policy.
func (VTime) Pick(s *sched.Scheduler, cands []int) int { return s.DefaultPick(cands) }

// Preempt implements sched.Policy.
func (VTime) Preempt(s *sched.Scheduler, ctx int) bool { return s.DefaultPreempt(ctx) }

// RandomWalk picks a uniformly random runnable context each iteration and
// forces a context switch with a small per-decision probability (on top of
// the OS quantum, which still applies — without it an unlucky stream could
// starve a waiter forever).
type RandomWalk struct {
	rng         *rng.Rand
	preemptProb float64
}

// NewRandomWalk returns a random-walk strategy.
func NewRandomWalk(seed uint64, preemptProb float64) *RandomWalk {
	return &RandomWalk{rng: rng.New(seed), preemptProb: preemptProb}
}

// Pick implements sched.Policy.
func (r *RandomWalk) Pick(s *sched.Scheduler, cands []int) int {
	if len(cands) == 1 {
		return 0
	}
	return r.rng.Intn(len(cands))
}

// Preempt implements sched.Policy.
func (r *RandomWalk) Preempt(s *sched.Scheduler, ctx int) bool {
	return s.DefaultPreempt(ctx) || r.rng.Bool(r.preemptProb)
}

// pctDefaultSteps estimates the number of scheduling decisions in one fuzz
// run; PCT samples its priority-change points uniformly from this range.
// Overshooting only wastes change points, so a generous default is safe.
const pctDefaultSteps = 200_000

// PCT is a priority-based concurrency testing strategy in the style of
// Burckhardt et al.: every thread gets a random distinct priority above d,
// the highest-priority runnable thread always runs, and at d−1 random
// decision counts the currently scheduled thread's priority drops below
// all others. A bug needing d ordered scheduling constraints is found with
// probability ≥ 1/(n·k^(d−1)) per run — far better than uniform random for
// the rare deep interleavings reclamation races hide in.
//
// Adapted to this machine model: candidates are hardware contexts, so Pick
// chooses the context whose occupant has the highest priority, and Preempt
// rotates an oversubscribed context whenever a queued waiter outranks the
// occupant (plus the OS quantum as a starvation backstop).
type PCT struct {
	rng     *rng.Rand
	depth   int
	prio    []int    // thread id -> priority (higher runs first)
	changes []uint64 // decision counts at which to demote
	n       uint64   // decisions made
	nextLow int      // next demotion priority (d-1, d-2, ...)
}

// unassignedPrio marks a prio slot whose thread has not been seen yet.
// Real priorities are positive: initial ones are >= depth, demoted ones
// count down from depth-1 to 1.
const unassignedPrio = math.MinInt

// NewPCT returns a PCT strategy of the given depth; steps bounds the
// uniform sample range for the d−1 priority-change points.
func NewPCT(seed uint64, depth, steps int) *PCT {
	if depth < 1 {
		depth = 1
	}
	if steps < 1 {
		steps = pctDefaultSteps
	}
	p := &PCT{
		rng:     rng.New(seed),
		depth:   depth,
		nextLow: depth - 1,
	}
	for i := 0; i < depth-1; i++ {
		p.changes = append(p.changes, p.rng.Uint64n(uint64(steps)))
	}
	return p
}

// priority lazily assigns thread id its random initial priority in
// [depth, depth+2^16): distinct except for rare collisions, which only
// blur the ordering, not correctness.
func (p *PCT) priority(tid int) int {
	for tid >= len(p.prio) {
		p.prio = append(p.prio, unassignedPrio)
	}
	if pr := p.prio[tid]; pr != unassignedPrio {
		return pr
	}
	pr := p.depth + p.rng.Intn(1<<16)
	p.prio[tid] = pr
	return pr
}

// Pick implements sched.Policy: the candidate context whose occupant has
// the highest priority, ties to the lowest context id.
func (p *PCT) Pick(s *sched.Scheduler, cands []int) int {
	best, bestPrio := 0, -1
	for i, ctx := range cands {
		if pr := p.priority(s.OccupantID(ctx)); pr > bestPrio {
			best, bestPrio = i, pr
		}
	}
	n := p.n
	p.n++
	for _, c := range p.changes {
		if c == n {
			// Priority-change point: demote the thread about to run below
			// every initial priority.
			p.prio[s.OccupantID(cands[best])] = p.nextLow
			p.nextLow--
			break
		}
	}
	return best
}

// Preempt implements sched.Policy: rotate when a queued waiter outranks the
// occupant (a demotion took effect, or a high-priority thread landed behind
// a low one), with the OS quantum as a starvation backstop.
func (p *PCT) Preempt(s *sched.Scheduler, ctx int) bool {
	occ := p.priority(s.OccupantID(ctx))
	for pos := 1; pos < s.QueueLen(ctx); pos++ {
		if p.priority(s.QueueThreadID(ctx, pos)) > occ {
			return true
		}
	}
	return s.DefaultPreempt(ctx)
}
