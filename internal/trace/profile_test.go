package trace_test

import (
	"strings"
	"testing"

	"stacktrack/internal/cost"
	"stacktrack/internal/sched"
	"stacktrack/internal/trace"
)

// blockSpan runs one block span on th: open on op's block pc, let inside
// emit its events, advance the clock to elapsed cycles after the open,
// and close.
func blockSpan(tp *trace.ThreadProfile, th *sched.Thread, op int, name string, pc int, elapsed cost.Cycles, inside func()) {
	th.CurOp, th.CurBlock = name, pc
	v0 := th.VTime()
	tp.TraceEvent(th, sched.TraceSpanOpen, uint64(op), 0)
	if inside != nil {
		inside()
	}
	th.Charge(v0 + elapsed - th.VTime())
	tp.TraceEvent(th, sched.TraceSpanClose, uint64(sched.PhaseBlock), 0)
}

// TestSpanSelfCycles checks self-cycle attribution: cycles events inside a
// span are excluded from the span's self-cycles.
func TestSpanSelfCycles(t *testing.T) {
	th := newBareThread()
	tp := &trace.ThreadProfile{ID: 0}
	blockSpan(tp, th, 0, "op", 2, 1000, func() {
		tp.TraceEvent(th, sched.TraceCycles, uint64(sched.PhaseFence), 80)
		tp.TraceEvent(th, sched.TraceFree, 0x40, 90)
	})
	if got := tp.PhaseCycles(sched.PhaseBlock); got != 830 {
		t.Fatalf("block self-cycles %d, want 830", got)
	}
	if tp.PhaseCycles(sched.PhaseFence) != 80 || tp.PhaseCycles(sched.PhaseFree) != 90 {
		t.Fatal("leaf phases wrong")
	}
	if tp.Total() != 1000 {
		t.Fatalf("total %d, want 1000 (phases must partition elapsed)", tp.Total())
	}
	// Elapsed fully claimed by events inside → no negative self-cycles.
	tp.TraceEvent(th, sched.TraceSpanOpen, 0, 0)
	tp.TraceEvent(th, sched.TraceCycles, uint64(sched.PhaseFence), 500)
	th.Charge(400)
	tp.TraceEvent(th, sched.TraceSpanClose, uint64(sched.PhaseScan), 0)
	if tp.PhaseCycles(sched.PhaseScan) != 0 {
		t.Fatal("over-claimed span must clamp to zero")
	}
}

func TestFoldedStacksDeterministic(t *testing.T) {
	th := newBareThread()
	p := trace.NewProfiler()
	t1 := p.Thread(1)
	t0 := p.Thread(0)
	t0.TraceEvent(th, sched.TraceCycles, uint64(sched.PhaseFence), 10)
	blockSpan(t0, th, 0, "push", 0, 100, nil)
	t1.TraceEvent(th, sched.TraceCycles, uint64(sched.PhasePreempt), 5)
	var a, b strings.Builder
	if err := p.FoldedStacks(&a); err != nil {
		t.Fatal(err)
	}
	if err := p.FoldedStacks(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("folded output not deterministic")
	}
	want := "t0;fence 10\nt0;block;push;b0 100\nt1;preempt 5\n"
	if a.String() != want {
		t.Fatalf("folded output:\n%q\nwant:\n%q", a.String(), want)
	}
}

func TestSummary(t *testing.T) {
	th := newBareThread()
	p := trace.NewProfiler()
	tp := p.Thread(0)
	blockSpan(tp, th, 1, "pop", 0, 130, func() {
		tp.TraceEvent(th, sched.TraceSegCommit, 3, 30)
	})
	s := p.Summary()
	if s.TotalCycles != 130 {
		t.Fatalf("total %d", s.TotalCycles)
	}
	if s.Phases["block"] != 100 || s.Phases["tx-commit"] != 30 {
		t.Fatalf("phases %v", s.Phases)
	}
	if s.Ops["pop"] != 100 {
		t.Fatalf("ops %v", s.Ops)
	}
	top := s.TopPhases()
	if len(top) != 2 || top[0].Name != "block" {
		t.Fatalf("top phases %v", top)
	}
}
