package explore

// Schedule logs: the record/replay layer. A recorded run stores only the
// scheduling decisions that *deviated* from the scheduler's built-in
// virtual-time rule, keyed by decision number. Everything else about the
// simulation is deterministic, so (config, strategy seed, deviations) is a
// complete, compact, bit-exact description of an execution — small enough
// to commit as a regression artifact, structured enough for ddmin to chew
// on.

import (
	"encoding/json"
	"fmt"
	"os"

	"stacktrack/internal/sched"
)

// Decision is one recorded deviation from the default scheduling rule at
// decision number N (the N-th scheduler loop iteration of the run).
type Decision struct {
	// N is the decision number the deviation applies to.
	N uint64 `json:"n"`
	// Pick, when >= 0, overrides the context choice: the index into that
	// iteration's runnable-candidate list. -1 leaves the default pick.
	Pick int `json:"pick"`
	// Pre overrides the preemption decision: 1 forces a context switch,
	// 0 suppresses one the quantum would have made, -1 leaves the default.
	Pre int `json:"pre"`
	// Tid records which thread the decision affected when it was first
	// recorded — informational only (narratives); replay ignores it.
	Tid int `json:"tid,omitempty"`
}

// Log is a complete schedule artifact: replaying it reproduces the run.
type Log struct {
	// Config is the full run description (workload + strategy).
	Config RunConfig `json:"config"`
	// Oracle optionally names the oracle this log was saved for failing
	// (regression artifacts assert replay re-fires the same oracle).
	Oracle string `json:"oracle,omitempty"`
	// Decisions are the deviations from the default rule, ascending by N.
	Decisions []Decision `json:"decisions"`
}

// WriteFile serializes the log as indented JSON.
func (l *Log) WriteFile(path string) error {
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadLog reads a schedule artifact written by WriteFile and rejects one
// whose configuration fails RunConfig.validate.
func LoadLog(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Log
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("explore: parsing %s: %w", path, err)
	}
	for i := 1; i < len(l.Decisions); i++ {
		if l.Decisions[i].N <= l.Decisions[i-1].N {
			return nil, fmt.Errorf("explore: %s: decisions not strictly ascending at index %d", path, i)
		}
	}
	if err := l.Config.validate(); err != nil {
		return nil, fmt.Errorf("explore: %s: %w", path, err)
	}
	return &l, nil
}

// Recording wraps a strategy and logs every decision where the strategy
// deviated from the scheduler's default rule. Wrapping the vtime strategy
// yields an empty log; wrapping random/pct yields exactly the deviations
// that distinguish the explored schedule.
type Recording struct {
	inner     sched.Policy
	decisions []Decision
	n         uint64
	// cur points at the Decision appended for the current iteration (so a
	// Preempt deviation merges into its Pick entry), nil when the current
	// iteration has no entry yet.
	cur *Decision
}

// NewRecording wraps inner with deviation recording.
func NewRecording(inner sched.Policy) *Recording { return &Recording{inner: inner} }

// NewRecordingAt wraps inner with deviation recording for a run resumed
// from a snapshot taken at decision boundary n: the first Pick call is
// numbered n, so the recorded log lines up with a from-scratch replay
// whose first n decisions follow the default rule.
func NewRecordingAt(inner sched.Policy, n uint64) *Recording {
	return &Recording{inner: inner, n: n}
}

// Decisions returns the recorded deviations (ascending by N).
func (r *Recording) Decisions() []Decision { return r.decisions }

// Steps returns how many scheduling decisions the run made in total.
func (r *Recording) Steps() uint64 { return r.n }

// Pick implements sched.Policy.
func (r *Recording) Pick(s *sched.Scheduler, cands []int) int {
	n := r.n
	r.n++
	r.cur = nil
	got, def := r.inner.Pick(s, cands), s.DefaultPick(cands)
	if got < 0 || got >= len(cands) {
		got = def
	}
	if got != def {
		r.decisions = append(r.decisions, Decision{
			N: n, Pick: got, Pre: -1, Tid: s.OccupantID(cands[got]),
		})
		r.cur = &r.decisions[len(r.decisions)-1]
	}
	return got
}

// Preempt implements sched.Policy.
func (r *Recording) Preempt(s *sched.Scheduler, ctx int) bool {
	got := r.inner.Preempt(s, ctx)
	if got != s.DefaultPreempt(ctx) {
		if r.cur == nil {
			r.decisions = append(r.decisions, Decision{
				N: r.n - 1, Pick: -1, Pre: -1, Tid: s.OccupantID(ctx),
			})
			r.cur = &r.decisions[len(r.decisions)-1]
		}
		if got {
			r.cur.Pre = 1
		} else {
			r.cur.Pre = 0
		}
	}
	return got
}

// Applied is one replayed deviation annotated with what it actually did —
// the raw material of counterexample narratives.
type Applied struct {
	Decision
	// PickedTid is the thread that ran because of a pick override (-1 when
	// the decision had none).
	PickedTid int
	// DefaultTid is the thread the default rule would have run instead.
	DefaultTid int
	// Preempted reports whether a forced preemption actually fired.
	Preempted bool
}

// Replay re-drives the scheduler from a decision list: default rule
// everywhere except at the logged decision numbers. Decisions whose N never
// comes up (the run ended early) or whose Pick exceeds the candidate count
// are skipped — that tolerance is what lets ddmin re-test arbitrary subsets
// without alignment bookkeeping.
type Replay struct {
	decisions []Decision
	idx       int
	n         uint64
	cur       *Decision
	applied   []Applied
}

// NewReplay builds a replay policy over decisions (ascending by N).
func NewReplay(decisions []Decision) *Replay { return &Replay{decisions: decisions} }

// NewReplayAt builds a replay policy positioned mid-run: the next Pick
// call is decision number n, and decisions with N < n are skipped as
// already applied. This is the policy half of resuming from a snapshot
// taken at decision boundary n.
func NewReplayAt(decisions []Decision, n uint64) *Replay {
	r := &Replay{decisions: decisions, n: n}
	for r.idx < len(r.decisions) && r.decisions[r.idx].N < n {
		r.idx++
	}
	return r
}

// Applied returns the deviations that actually fired during the replay.
func (r *Replay) Applied() []Applied { return r.applied }

// Pick implements sched.Policy.
func (r *Replay) Pick(s *sched.Scheduler, cands []int) int {
	n := r.n
	r.n++
	r.cur = nil
	for r.idx < len(r.decisions) && r.decisions[r.idx].N < n {
		r.idx++
	}
	def := s.DefaultPick(cands)
	if r.idx < len(r.decisions) && r.decisions[r.idx].N == n {
		r.cur = &r.decisions[r.idx]
		if p := r.cur.Pick; p >= 0 && p < len(cands) {
			r.applied = append(r.applied, Applied{
				Decision:   *r.cur,
				PickedTid:  s.OccupantID(cands[p]),
				DefaultTid: s.OccupantID(cands[def]),
			})
			return p
		}
	}
	return def
}

// Preempt implements sched.Policy.
func (r *Replay) Preempt(s *sched.Scheduler, ctx int) bool {
	if r.cur != nil && r.cur.Pre >= 0 {
		forced := r.cur.Pre == 1
		if forced {
			r.applied = append(r.applied, Applied{
				Decision:  *r.cur,
				PickedTid: s.OccupantID(ctx),
				Preempted: true,
			})
		}
		return forced
	}
	return s.DefaultPreempt(ctx)
}
