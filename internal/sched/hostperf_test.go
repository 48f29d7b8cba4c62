package sched

// Host-performance guards for the decision loops: the keyed policy-free
// loop and the Policy loop must make zero Go allocations per decision in
// steady state, and both must stay pick-for-pick identical to the legacy
// per-decision rescan (the bench-level bit-identity sweep covers whole
// runs; here the three loops race each other step by step in isolation).

import (
	"testing"

	"stacktrack/internal/alloc"
	"stacktrack/internal/cost"
	"stacktrack/internal/mem"
	"stacktrack/internal/topo"
)

// loopMode selects which decision loop a test scheduler runs on.
type loopMode int

const (
	modeKeyed  loopMode = iota // no policy: the keyed loop
	modePolicy                 // a VTime-equivalent policy: the Policy loop
	modeLegacy                 // the legacy rescan
)

var loopModes = []struct {
	name string
	mode loopMode
}{{"keyed", modeKeyed}, {"policy", modePolicy}, {"legacy", modeLegacy}}

// vtimeStub is the built-in rule as an explicit Policy. It counts the
// timeslice expiries it grants, so a test can check that rotation ran.
type vtimeStub struct{ expiries int }

func (p *vtimeStub) Pick(s *Scheduler, cands []int) int { return s.DefaultPick(cands) }
func (p *vtimeStub) Preempt(s *Scheduler, ctx int) bool {
	pre := s.DefaultPreempt(ctx)
	if pre {
		p.expiries++
	}
	return pre
}

// newLoopScheduler returns an empty scheduler set up for mode.
func newLoopScheduler(tp topo.Topology, mode loopMode) (*Scheduler, *mem.Memory, *alloc.Allocator) {
	m := mem.New(mem.Config{Words: 1 << 18, Topology: tp})
	a := alloc.New(m)
	sc := NewScheduler(m, tp, 1)
	switch mode {
	case modePolicy:
		sc.SetPolicy(&vtimeStub{})
	case modeLegacy:
		sc.SetLegacyScan(true)
	}
	return sc, m, a
}

func newPerfWorld(nThreads int, mode loopMode) *Scheduler {
	return newPerfWorldOn(topo.Haswell8Way(), nThreads, mode)
}

func newPerfWorldOn(tp topo.Topology, nThreads int, mode loopMode) *Scheduler {
	sc, m, a := newLoopScheduler(tp, mode)
	for i := 0; i < nThreads; i++ {
		th := NewThread(i, m, a, uint64(i)+100)
		sc.AddThread(th, &counterStepper{cost: cost.Cycles(90 + 7*i)})
	}
	return sc
}

// newRaceWorld builds a workload that reaches every path the keyed loop
// re-implements: equal step costs (pick ties), steppers that finish
// (retirement), one that calls SetDone in mid-step, and threads that
// block on another thread's progress (blocked polls). The race adds a
// crash between Run calls.
func newRaceWorld(nThreads int, mode loopMode) *Scheduler {
	sc, m, a := newLoopScheduler(topo.Haswell8Way(), mode)
	ts := make([]*Thread, nThreads)
	for i := range ts {
		ts[i] = NewThread(i, m, a, uint64(i)+100)
	}
	for i, th := range ts {
		st := &counterStepper{cost: cost.Cycles(100 + 10*(i%3))}
		if i%7 == 3 {
			st.limit = 3_000 + 500*i
		}
		switch {
		case i == 1:
			st.body = func(t *Thread) {
				if st.steps == 5_000 {
					t.SetDone()
				}
			}
		case i%5 == 2:
			other := ts[(i+1)%nThreads]
			st.body = func(t *Thread) {
				if st.steps%400 == 0 {
					mark := t.VTime() + 20_000
					t.Blocked = func() bool { return other.Done() || other.VTime() >= mark }
				}
			}
		}
		sc.AddThread(th, st)
	}
	return sc
}

// TestDecisionLoopZeroAlloc pins that advancing the schedule performs
// zero steady-state Go allocations per decision, on the keyed loop and
// on the Policy loop.
func TestDecisionLoopZeroAlloc(t *testing.T) {
	for _, m := range loopModes[:2] {
		sc := newPerfWorld(8, m.mode)
		horizon := cost.Cycles(50_000)
		sc.Run(horizon) // establish counter lanes and buffers
		allocs := testing.AllocsPerRun(100, func() {
			horizon += 20_000
			sc.Run(horizon)
		})
		if allocs != 0 {
			t.Fatalf("%s loop allocated %.2f times per run, want 0 (decisions so far: %d)",
				m.name, allocs, sc.Decisions())
		}
	}
}

// TestReadyStructureMatchesLegacyScan races the keyed loop, the Policy
// loop and the legacy rescan over the same workload in lockstep, past
// three timeslice quanta, pausing at odd decision counts, and demands
// identical decision counts, pause outcomes and thread clocks at every
// stop: including under oversubscription, where rotation side effects
// are the risky part.
func TestReadyStructureMatchesLegacyScan(t *testing.T) {
	const step = 170_003
	for _, threads := range []int{4, 8, 24} { // 24 > 8 contexts: oversubscribed
		var worlds [3]*Scheduler
		for i, m := range loopModes {
			worlds[i] = newRaceWorld(threads, m.mode)
		}
		check := func(h cost.Cycles, what string) {
			t.Helper()
			ref := worlds[2]
			for i, w := range worlds[:2] {
				if w.Decisions() != ref.Decisions() || w.Paused() != ref.Paused() {
					t.Fatalf("threads=%d horizon=%d %s: %s loop at %d decisions (paused %v), legacy at %d (paused %v)",
						threads, h, what, loopModes[i].name, w.Decisions(), w.Paused(), ref.Decisions(), ref.Paused())
				}
				for j := range w.threads {
					if w.threads[j].vtime != ref.threads[j].vtime || w.threads[j].done != ref.threads[j].done {
						t.Fatalf("threads=%d horizon=%d %s: %s loop thread %d clock %d (done %v), legacy %d (done %v)",
							threads, h, what, loopModes[i].name, j, w.threads[j].vtime, w.threads[j].done,
							ref.threads[j].vtime, ref.threads[j].done)
					}
				}
			}
		}
		// Short horizons first (hand-offs at the horizon), then horizons
		// longer than a quantum (timeslice-expiry rotations), pausing at
		// odd decision counts all along.
		horizons := []cost.Cycles{step, 2 * step, 3 * step}
		for k := cost.Cycles(1); k <= 3; k++ {
			horizons = append(horizons, 3*step+k*(cost.TimesliceQuantum+270_001))
		}
		pause := uint64(1)
		for _, h := range horizons {
			for {
				for _, w := range worlds {
					w.PauseAtDecision(pause)
					w.Run(h)
				}
				check(h, "at a stop")
				if !worlds[2].Paused() {
					break
				}
				pause += 20_002 + 2*(pause%7) // an even stride keeps it odd
			}
			for _, w := range worlds {
				w.ClearPause()
				if h == horizons[2] {
					w.Crash(0) // between Run calls, as the harness crashes threads
				}
			}
			if worlds[0].loop != loopKeyed || worlds[1].loop != loopReady || worlds[2].loop != loopRescan {
				t.Fatalf("threads=%d: loops taken %d/%d/%d", threads, worlds[0].loop, worlds[1].loop, worlds[2].loop)
			}
		}

		// The race must have reached the paths it exists to check.
		w := worlds[0]
		if !w.threads[1].done {
			t.Errorf("threads=%d: the SetDone thread never finished", threads)
		}
		if !w.threads[3].done {
			t.Errorf("threads=%d: the limited thread 3 never finished", threads)
		}
		if w.ctrPolls.Value() == 0 {
			t.Errorf("threads=%d: no blocked polls", threads)
		}
		if exp := worlds[1].policy.(*vtimeStub).expiries; threads > w.NumContexts() && exp == 0 {
			t.Errorf("threads=%d: no timeslice-expiry rotations", threads)
		}
	}
}

// TestReadySetSelection pins which decision loop Run takes: topologies
// that fit the 64-bit dirty mask (the paper's 8-context machine, E10's
// 16-context one) take the keyed loop with no policy and the ready-set
// loop with one or with a vtime pause armed; wider topologies and
// SetLegacyScan take the per-decision rescan.
func TestReadySetSelection(t *testing.T) {
	wide := topo.Haswell8Way()
	wide.Cores = 40 // 80 contexts
	big := topo.Haswell8Way()
	big.Cores = 16
	for _, c := range []struct {
		name   string
		tp     topo.Topology
		mode   loopMode
		vtWait bool
		want   loopKind
	}{
		{"default", topo.Haswell8Way(), modeKeyed, false, loopKeyed},
		{"16-context", big, modeKeyed, false, loopKeyed},
		{"policy", topo.Haswell8Way(), modePolicy, false, loopReady},
		{"vtime-pause", topo.Haswell8Way(), modeKeyed, true, loopReady},
		{"80-context", wide, modeKeyed, false, loopRescan},
		{"legacy-scan", topo.Haswell8Way(), modeLegacy, false, loopRescan},
	} {
		sc := newPerfWorldOn(c.tp, 4, c.mode)
		if c.vtWait {
			sc.PauseAtVTime(1 << 40)
		}
		sc.Run(10_000)
		if sc.Decisions() == 0 {
			t.Fatalf("%s: no decisions made", c.name)
		}
		if sc.loop != c.want {
			t.Errorf("%s (%d contexts): loop %d taken, want %d", c.name, c.tp.Contexts(), sc.loop, c.want)
		}
	}
}

// TestKeyedHorizonLimit pins the key encoding's bound: a horizon at
// 2^52 cycles or beyond would let a ready clock overflow its key, so Run
// leaves such a call to the ready-set loop.
func TestKeyedHorizonLimit(t *testing.T) {
	for _, c := range []struct {
		until cost.Cycles
		want  loopKind
	}{{keyedHorizonLimit - 1, loopKeyed}, {keyedHorizonLimit, loopReady}} {
		sc, m, a := newLoopScheduler(topo.Haswell8Way(), modeKeyed)
		for i := 0; i < 3; i++ {
			sc.AddThread(NewThread(i, m, a, uint64(i)+100), &counterStepper{cost: 100, limit: 50})
		}
		sc.Run(c.until)
		if sc.loop != c.want {
			t.Errorf("horizon %d: loop %d taken, want %d", c.until, sc.loop, c.want)
		}
		if sc.Decisions() != 150 {
			t.Errorf("horizon %d: %d decisions, want 150", c.until, sc.Decisions())
		}
	}
}

// BenchmarkDecisionLoop times the three loops on the 8-context machine,
// fully subscribed and oversubscribed, with horizons that cross several
// timeslice quanta over a run.
func BenchmarkDecisionLoop(b *testing.B) {
	for _, m := range loopModes {
		for _, threads := range []int{8, 24} {
			name := m.name
			if threads > topo.Haswell8Way().Contexts() {
				name += "-oversubscribed"
			}
			b.Run(name, func(b *testing.B) {
				sc := newPerfWorld(threads, m.mode)
				horizon := cost.Cycles(10_000)
				sc.Run(horizon)
				d0 := sc.Decisions()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					horizon += cost.TimesliceQuantum / 10
					sc.Run(horizon)
				}
				b.StopTimer()
				n := sc.Decisions() - d0
				if n < uint64(b.N) {
					b.Fatalf("%d decisions over %d Run calls", n, b.N)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/decision")
			})
		}
	}
}
