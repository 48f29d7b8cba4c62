package trace

// Virtual-cycle profiler: a lifecycle-event consumer that attributes every
// simulated cycle a thread spends to a phase (block execution, tx
// begin/commit/abort, scan, free, fence, preemption, HT slowdown, blocked
// polling) and, for block execution, down to the individual program
// block. Attribution is self-cycles: a fence charged in the middle of a
// block shows up under the fence phase and is excluded from the block's
// own total, so the phase totals partition the run's cycles instead of
// double-counting.
//
// The profiler only reads virtual-time deltas; it never charges cycles
// itself, so enabling it cannot change simulated results.

import (
	"fmt"
	"io"
	"sort"

	"stacktrack/internal/cost"
	"stacktrack/internal/sched"
)

// opProfile accumulates per-block self cycles for one op type.
type opProfile struct {
	name   string
	blocks []uint64
}

// openSpan is an attribution span awaiting its close: where it started,
// how much had been attributed by then, and (for a block span) which
// block it covers.
type openSpan struct {
	start  cost.Cycles
	total  uint64
	op, pc int
	name   string
}

// ThreadProfile is one simulated thread's cycle attribution. It
// implements sched.Tracer; install one per thread. Events are cheap array
// arithmetic; the ops slice grows only the first time a new op id or
// block index is seen.
type ThreadProfile struct {
	ID     int
	phases [sched.NumPhases]uint64
	// total is every cycle attributed so far; a span's self-cycles are
	// its elapsed time minus what was attributed while it was open.
	total uint64
	spans []openSpan
	ops   []opProfile
}

// TraceEvent implements sched.Tracer.
func (tp *ThreadProfile) TraceEvent(t *sched.Thread, k sched.TraceKind, arg uint64, c cost.Cycles) {
	switch k {
	case sched.TraceCycles:
		tp.add(sched.Phase(arg), uint64(c))
	case sched.TraceSegCommit:
		tp.add(sched.PhaseTxCommit, uint64(c))
	case sched.TraceSegAbort:
		tp.add(sched.PhaseTxAbort, uint64(c))
	case sched.TraceFree:
		tp.add(sched.PhaseFree, uint64(c))
	case sched.TracePreempt:
		tp.add(sched.PhasePreempt, uint64(c))
	case sched.TraceSpanOpen:
		tp.spans = append(tp.spans, openSpan{
			start: t.VTime(), total: tp.total,
			op: int(arg), pc: t.CurBlock, name: t.CurOp,
		})
	case sched.TraceSpanClose:
		n := len(tp.spans) - 1
		sp := tp.spans[n]
		tp.spans = tp.spans[:n]
		tp.closeSpan(sp, sched.Phase(arg), uint64(t.VTime()-sp.start))
	}
}

func (tp *ThreadProfile) add(ph sched.Phase, c uint64) {
	tp.phases[ph] += c
	tp.total += c
}

// closeSpan attributes a span's self-cycles to phase ph and, for a block
// span, to its program block.
func (tp *ThreadProfile) closeSpan(sp openSpan, ph sched.Phase, elapsed uint64) {
	claimed := tp.total - sp.total
	if elapsed <= claimed {
		return
	}
	self := elapsed - claimed
	tp.add(ph, self)
	if ph != sched.PhaseBlock || sp.op < 0 || sp.pc < 0 {
		return
	}
	for sp.op >= len(tp.ops) {
		tp.ops = append(tp.ops, opProfile{})
	}
	op := &tp.ops[sp.op]
	if op.name == "" {
		op.name = sp.name
	}
	for sp.pc >= len(op.blocks) {
		op.blocks = append(op.blocks, 0)
	}
	op.blocks[sp.pc] += self
}

// PhaseCycles reports the cycles attributed to ph.
func (tp *ThreadProfile) PhaseCycles(ph sched.Phase) uint64 { return tp.phases[ph] }

// Total reports all cycles attributed to this thread.
func (tp *ThreadProfile) Total() uint64 { return tp.total }

// Reset zeroes the profile. Spans are never open across a reset: each
// opens and closes within one scheduler step.
func (tp *ThreadProfile) Reset() {
	tp.phases = [sched.NumPhases]uint64{}
	tp.total = 0
	tp.ops = nil
}

// Profiler owns the per-thread profiles for one simulation instance.
type Profiler struct {
	threads []*ThreadProfile
}

// NewProfiler creates an empty profiler.
func NewProfiler() *Profiler { return &Profiler{} }

// Thread returns tid's profile, creating it on first use.
func (p *Profiler) Thread(tid int) *ThreadProfile {
	for tid >= len(p.threads) {
		p.threads = append(p.threads, nil)
	}
	if p.threads[tid] == nil {
		p.threads[tid] = &ThreadProfile{ID: tid}
	}
	return p.threads[tid]
}

// Reset zeroes every thread profile (handles stay valid).
func (p *Profiler) Reset() {
	for _, tp := range p.threads {
		if tp != nil {
			tp.Reset()
		}
	}
}

// FoldedStacks writes the profile as folded-stack lines compatible
// with flamegraph.pl: semicolon-separated frames, a space, and the
// cycle count. Output is deterministic (threads ascending, phases in
// enum order, blocks in index order); zero-count frames are omitted.
//
//	t0;block;list-insert;b2 1040
//	t0;fence 640
func (p *Profiler) FoldedStacks(w io.Writer) error {
	for _, tp := range p.threads {
		if tp == nil {
			continue
		}
		for ph := sched.Phase(0); ph < sched.NumPhases; ph++ {
			if ph == sched.PhaseBlock {
				continue
			}
			if c := tp.phases[ph]; c > 0 {
				if _, err := fmt.Fprintf(w, "t%d;%s %d\n", tp.ID, ph, c); err != nil {
					return err
				}
			}
		}
		var attributed uint64
		for opID := range tp.ops {
			op := &tp.ops[opID]
			name := op.name
			if name == "" {
				name = fmt.Sprintf("op%d", opID)
			}
			for pc, c := range op.blocks {
				if c == 0 {
					continue
				}
				attributed += c
				if _, err := fmt.Fprintf(w, "t%d;block;%s;b%d %d\n", tp.ID, name, pc, c); err != nil {
					return err
				}
			}
		}
		// Block cycles with no op identity (e.g. slow-path segments
		// recorded without a pc) still need a frame so totals add up.
		if rest := tp.phases[sched.PhaseBlock] - attributed; rest > 0 {
			if _, err := fmt.Fprintf(w, "t%d;block;(unattributed) %d\n", tp.ID, rest); err != nil {
				return err
			}
		}
	}
	return nil
}

// ProfileSummary is the JSON-facing rollup of a profiler: total cycles
// and per-phase / per-op totals merged across threads.
type ProfileSummary struct {
	TotalCycles uint64            `json:"total_cycles"`
	Phases      map[string]uint64 `json:"phases"`
	Ops         map[string]uint64 `json:"ops,omitempty"`
}

// Summary merges all threads into a ProfileSummary.
func (p *Profiler) Summary() *ProfileSummary {
	s := &ProfileSummary{Phases: map[string]uint64{}}
	ops := map[string]uint64{}
	for _, tp := range p.threads {
		if tp == nil {
			continue
		}
		for ph := sched.Phase(0); ph < sched.NumPhases; ph++ {
			if c := tp.phases[ph]; c > 0 {
				s.Phases[ph.String()] += c
				s.TotalCycles += c
			}
		}
		for opID := range tp.ops {
			op := &tp.ops[opID]
			var tot uint64
			for _, c := range op.blocks {
				tot += c
			}
			if tot == 0 {
				continue
			}
			name := op.name
			if name == "" {
				name = fmt.Sprintf("op%d", opID)
			}
			ops[name] += tot
		}
	}
	if len(ops) > 0 {
		s.Ops = ops
	}
	return s
}

// PhaseTotal is one phase's merged cycle count.
type PhaseTotal struct {
	Name   string
	Cycles uint64
}

// TopPhases reports phases sorted by descending cycles (ties by name) — a
// convenience for CLI summaries.
func (s *ProfileSummary) TopPhases() []PhaseTotal {
	out := make([]PhaseTotal, 0, len(s.Phases))
	for n, c := range s.Phases {
		out = append(out, PhaseTotal{n, c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Name < out[j].Name
	})
	return out
}
