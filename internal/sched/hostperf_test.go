package sched

// Host-performance guards for the decision loop: the incrementally
// maintained ready structure must make zero Go allocations per decision
// in steady state, and must stay pick-for-pick identical to the legacy
// per-decision rescan (the bench-level bit-identity sweep covers whole
// runs; here the two paths race each other step by step in isolation).

import (
	"testing"

	"stacktrack/internal/alloc"
	"stacktrack/internal/cost"
	"stacktrack/internal/mem"
	"stacktrack/internal/topo"
)

func newPerfWorld(nThreads int, legacy bool) *Scheduler {
	return newPerfWorldOn(topo.Haswell8Way(), nThreads, legacy)
}

func newPerfWorldOn(tp topo.Topology, nThreads int, legacy bool) *Scheduler {
	m := mem.New(mem.Config{Words: 1 << 18, Topology: tp})
	a := alloc.New(m)
	sc := NewScheduler(m, tp, 1)
	sc.SetLegacyScan(legacy)
	for i := 0; i < nThreads; i++ {
		th := NewThread(i, m, a, uint64(i)+100)
		sc.AddThread(th, &counterStepper{cost: cost.Cycles(90 + 7*i)})
	}
	return sc
}

// TestDecisionLoopZeroAlloc pins the tentpole contract: advancing the
// schedule performs zero steady-state Go allocations per decision.
func TestDecisionLoopZeroAlloc(t *testing.T) {
	sc := newPerfWorld(8, false)
	horizon := cost.Cycles(50_000)
	sc.Run(horizon) // establish counter lanes and buffers
	allocs := testing.AllocsPerRun(100, func() {
		horizon += 20_000
		sc.Run(horizon)
	})
	if allocs != 0 {
		t.Fatalf("decision loop allocated %.2f times per run, want 0 (decisions so far: %d)",
			allocs, sc.Decisions())
	}
}

// TestReadyStructureMatchesLegacyScan advances an optimized and a legacy
// scheduler over the same workload in lockstep and demands identical
// decision counts and thread clocks at every horizon — including under
// oversubscription, where rotation side effects are the risky part.
func TestReadyStructureMatchesLegacyScan(t *testing.T) {
	for _, threads := range []int{4, 8, 24} { // 24 > 16 contexts: oversubscribed
		fast := newPerfWorld(threads, false)
		slow := newPerfWorld(threads, true)
		for h := cost.Cycles(10_000); h <= 200_000; h += 10_000 {
			fast.Run(h)
			slow.Run(h)
			if fast.Decisions() != slow.Decisions() {
				t.Fatalf("threads=%d horizon=%d: %d decisions optimized vs %d legacy",
					threads, h, fast.Decisions(), slow.Decisions())
			}
			for i := range fast.threads {
				if fast.threads[i].vtime != slow.threads[i].vtime {
					t.Fatalf("threads=%d horizon=%d: thread %d clock %d vs %d",
						threads, h, i, fast.threads[i].vtime, slow.threads[i].vtime)
				}
			}
		}
	}
}

// TestReadySetSelection pins which decision path Run takes: topologies
// that fit the 64-bit dirty mask (the paper's 8-context machine, E10's
// 16-context one) use the incremental ready set, wider ones fall back
// to the per-decision rescan, and SetLegacyScan forces the rescan.
func TestReadySetSelection(t *testing.T) {
	wide := topo.Haswell8Way()
	wide.Cores = 40 // 80 contexts
	big := topo.Haswell8Way()
	big.Cores = 16
	for _, c := range []struct {
		name   string
		tp     topo.Topology
		legacy bool
		want   bool
	}{
		{"default", topo.Haswell8Way(), false, true},
		{"16-context", big, false, true},
		{"80-context", wide, false, false},
		{"legacy-scan", topo.Haswell8Way(), true, false},
	} {
		sc := newPerfWorldOn(c.tp, 4, c.legacy)
		sc.Run(10_000)
		if sc.Decisions() == 0 {
			t.Fatalf("%s: no decisions made", c.name)
		}
		if sc.fastPick != c.want {
			t.Errorf("%s (%d contexts): incremental ready set in use = %v, want %v",
				c.name, c.tp.Contexts(), sc.fastPick, c.want)
		}
	}
}

func BenchmarkDecisionLoop(b *testing.B) {
	for _, mode := range []struct {
		name   string
		legacy bool
	}{{"optimized", false}, {"legacy", true}} {
		for _, threads := range []int{8, 24} {
			name := mode.name
			if threads > 16 {
				name += "-oversubscribed"
			}
			b.Run(name, func(b *testing.B) {
				sc := newPerfWorld(threads, mode.legacy)
				horizon := cost.Cycles(10_000)
				sc.Run(horizon)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					horizon += 5_000
					sc.Run(horizon)
				}
				b.StopTimer()
				if n := sc.Decisions(); n > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/decision")
				}
			})
		}
	}
}
