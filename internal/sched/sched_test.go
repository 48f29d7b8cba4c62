package sched

import (
	"testing"

	"stacktrack/internal/alloc"
	"stacktrack/internal/cost"
	"stacktrack/internal/mem"
	"stacktrack/internal/topo"
	"stacktrack/internal/word"
)

func newWorld(t *testing.T, nThreads int) (*mem.Memory, *alloc.Allocator, *Scheduler, []*Thread) {
	t.Helper()
	m := mem.New(mem.Config{Words: 1 << 18})
	a := alloc.New(m)
	sc := NewScheduler(m, topo.Haswell8Way(), 1)
	var ts []*Thread
	for i := 0; i < nThreads; i++ {
		th := NewThread(i, m, a, uint64(i)+100)
		th.Scheme = NopReclaimer{}
		ts = append(ts, th)
	}
	return m, a, sc, ts
}

// counterStepper charges a fixed cost and counts steps.
type counterStepper struct {
	steps int
	cost  cost.Cycles
	limit int
	body  func(t *Thread)
}

func (s *counterStepper) Step(t *Thread) bool {
	s.steps++
	t.Charge(s.cost)
	if s.body != nil {
		s.body(t)
	}
	return s.limit > 0 && s.steps >= s.limit
}

func TestThreadRegionsDisjoint(t *testing.T) {
	_, _, _, ts := newWorld(t, 4)
	type region struct{ lo, hi word.Addr }
	var regions []region
	for _, th := range ts {
		regions = append(regions,
			region{th.RegsBase, th.RegsBase + NumRegs},
			region{th.StackBase, th.StackBase + StackWords},
			region{th.CtrlBase, th.CtrlBase + 8},
			region{th.RefsBase, th.RefsBase + RefsWords},
		)
	}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			a, b := regions[i], regions[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Fatalf("regions %d and %d overlap", i, j)
			}
		}
	}
}

func TestVirtualTimeFairness(t *testing.T) {
	_, _, sc, ts := newWorld(t, 4)
	steppers := make([]*counterStepper, 4)
	for i, th := range ts {
		steppers[i] = &counterStepper{cost: cost.Cycles(100 * (i + 1))}
		sc.AddThread(th, steppers[i])
	}
	sc.Run(100_000)
	// Cheap threads should take proportionally more steps.
	if !(steppers[0].steps > steppers[1].steps && steppers[1].steps > steppers[3].steps) {
		t.Fatalf("steps not inversely proportional to cost: %d %d %d %d",
			steppers[0].steps, steppers[1].steps, steppers[2].steps, steppers[3].steps)
	}
	for i, th := range ts {
		if th.VTime() < 100_000 {
			t.Fatalf("thread %d stopped early at %d", i, th.VTime())
		}
	}
}

func TestRunHorizonRepeatable(t *testing.T) {
	_, _, sc, ts := newWorld(t, 2)
	st := &counterStepper{cost: 50}
	sc.AddThread(ts[0], st)
	sc.AddThread(ts[1], &counterStepper{cost: 50})
	sc.Run(10_000)
	first := st.steps
	sc.Run(20_000)
	if st.steps <= first {
		t.Fatal("second Run horizon did not continue execution")
	}
}

func TestDoneThreadStops(t *testing.T) {
	_, _, sc, ts := newWorld(t, 2)
	finite := &counterStepper{cost: 10, limit: 5}
	infinite := &counterStepper{cost: 10}
	sc.AddThread(ts[0], finite)
	sc.AddThread(ts[1], infinite)
	sc.Run(100_000)
	if finite.steps != 5 {
		t.Fatalf("finite thread took %d steps, want 5", finite.steps)
	}
	if !ts[0].Done() {
		t.Fatal("finite thread not marked done")
	}
	if infinite.steps < 1000 {
		t.Fatal("other thread should keep running")
	}
}

func TestOversubscriptionRotatesAndAbortsTx(t *testing.T) {
	m, _, sc, ts := newWorld(t, 16)
	preempted := 0
	for i, th := range ts {
		th := th
		st := &counterStepper{cost: 5000}
		if i == 0 {
			// Thread 0 holds a transaction open; rotation must abort it.
			st.body = func(t *Thread) {
				if t.Tx == nil || !t.Tx.Active() {
					if t.Tx != nil {
						if _, reason := t.Tx.Doomed(); reason == mem.Preempt {
							preempted++
						}
						m.FinishAbort(t.Tx)
					}
					t.Tx = m.Begin(t.ID)
				}
			}
		}
		sc.AddThread(th, st)
	}
	sc.Run(cost.TimesliceQuantum * 8)
	if preempted == 0 {
		t.Fatal("no preemption abort observed under 2x oversubscription")
	}
	// All threads must have made progress (the scheduler must rotate).
	for i, th := range ts {
		if th.VTime() == 0 {
			t.Fatalf("thread %d starved", i)
		}
	}
}

func TestNoRotationWhenNotOversubscribed(t *testing.T) {
	m, _, sc, ts := newWorld(t, 8)
	for _, th := range ts {
		sc.AddThread(th, &counterStepper{cost: 1000})
	}
	sc.Run(cost.TimesliceQuantum * 4)
	if got := m.TotalStats().PreemptAborts; got != 0 {
		t.Fatalf("%d preempt aborts without oversubscription", got)
	}
}

func TestBlockedThreadWaits(t *testing.T) {
	_, _, sc, ts := newWorld(t, 2)
	release := false
	woken := false
	blocker := &counterStepper{cost: 10}
	blocker.body = func(t *Thread) {
		if blocker.steps == 1 {
			t.Blocked = func() bool {
				if release {
					woken = true
					return true
				}
				return false
			}
		}
		if blocker.steps > 1 && !woken {
			panic("stepped while blocked")
		}
	}
	other := &counterStepper{cost: 10}
	other.body = func(t *Thread) {
		if other.steps == 500 {
			release = true
		}
	}
	sc.AddThread(ts[0], blocker)
	sc.AddThread(ts[1], other)
	sc.Run(1_000_000)
	if !woken {
		t.Fatal("blocked thread never woke")
	}
	if blocker.steps < 2 {
		t.Fatal("blocked thread did not resume stepping")
	}
}

func TestSiblingActive(t *testing.T) {
	_, _, sc, ts := newWorld(t, 5)
	for _, th := range ts {
		sc.AddThread(th, &counterStepper{cost: 10})
	}
	// Threads 0 and 4 share core 0 on the Haswell topology.
	if !sc.SiblingActive(0) {
		t.Fatal("thread 0 should see its sibling (thread 4) active")
	}
	if sc.SiblingActive(1) {
		t.Fatal("thread 1 has no sibling with 5 threads")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []cost.Cycles {
		_, _, sc, ts := newWorld(t, 12)
		for _, th := range ts {
			th := th
			st := &counterStepper{}
			st.body = func(t *Thread) { t.Charge(cost.Cycles(t.Rng.Intn(200))) }
			st.cost = 10
			sc.AddThread(th, st)
		}
		sc.Run(500_000)
		var out []cost.Cycles
		for _, th := range ts {
			out = append(out, th.VTime())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic vtime for thread %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestFrameLIFO(t *testing.T) {
	_, _, _, ts := newWorld(t, 1)
	th := ts[0]
	f1 := th.PushFrame(4)
	f2 := th.PushFrame(2)
	f2.Set(0, 11)
	f1.Set(3, 22)
	if f2.Get(0) != 11 || f1.Get(3) != 22 {
		t.Fatal("frame slots do not round-trip")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-LIFO pop should panic")
		}
		th.PopFrame(f2)
		th.PopFrame(f1)
		if th.SP() != 0 {
			t.Fatal("stack pointer not restored")
		}
	}()
	th.PopFrame(f1)
}

func TestFrameSlotBounds(t *testing.T) {
	_, _, _, ts := newWorld(t, 1)
	f := ts[0].PushFrame(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slot should panic")
		}
	}()
	f.Get(2)
}

func TestStackOverflowPanics(t *testing.T) {
	_, _, _, ts := newWorld(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("stack overflow should panic")
		}
	}()
	ts[0].PushFrame(StackWords + 1)
}

func TestRegistersSnapshotRestore(t *testing.T) {
	_, _, _, ts := newWorld(t, 1)
	th := ts[0]
	th.SetReg(3, 77)
	snap := th.RegSnapshot()
	th.SetReg(3, 88)
	th.RestoreRegs(snap)
	if th.Reg(3) != 77 {
		t.Fatal("register restore failed")
	}
}

func TestExposeRegistersVisible(t *testing.T) {
	m, _, _, ts := newWorld(t, 1)
	th := ts[0]
	th.SetReg(0, 123)
	th.ExposeRegisters()
	if m.Peek(th.RegsBase) != 123 {
		t.Fatal("exposed register not visible in simulated memory")
	}
}

func TestModeFastRollsBackFrames(t *testing.T) {
	m, _, _, ts := newWorld(t, 1)
	th := ts[0]
	f := th.PushFrame(1)
	f.Set(0, 1) // plain write, committed state
	th.Tx = m.Begin(th.ID)
	th.Mode = ModeFast
	f.Set(0, 2) // transactional, buffered
	if f.Get(0) != 2 {
		t.Fatal("transaction does not see its own frame write")
	}
	m.AbortTx(th.ID, mem.Explicit)
	m.FinishAbort(th.Tx)
	th.Tx = nil
	th.Mode = ModePlain
	if f.Get(0) != 1 {
		t.Fatal("aborted frame write survived")
	}
}

func TestTxAllocCompensation(t *testing.T) {
	m, a, _, ts := newWorld(t, 1)
	th := ts[0]
	th.Tx = m.Begin(th.ID)
	th.Mode = ModeFast
	p := th.Alloc(4)
	if len(th.TxAllocs()) != 1 {
		t.Fatal("transactional allocation not recorded")
	}
	m.AbortTx(th.ID, mem.Explicit)
	m.FinishAbort(th.Tx)
	th.Tx = nil
	th.Mode = ModePlain
	th.RollbackTxAllocs()
	if a.IsAllocated(p) {
		t.Fatal("allocation survived rollback")
	}
}

func TestValidationDetectsPoison(t *testing.T) {
	m, a, _, ts := newWorld(t, 1)
	th := ts[0]
	th.Validate = true
	p := a.Alloc(0, 4)
	a.Free(0, p)
	_ = th.Load(p)
	if th.UAFReads != 1 {
		t.Fatalf("UAFReads = %d, want 1", th.UAFReads)
	}
	_ = m
}

func TestAbortErrorPanicsInFastMode(t *testing.T) {
	m, _, _, ts := newWorld(t, 1)
	th := ts[0]
	th.Tx = m.Begin(th.ID)
	th.Mode = ModeFast
	m.AbortTx(th.ID, mem.Preempt)
	defer func() {
		r := recover()
		ae, ok := r.(AbortError)
		if !ok || ae.Reason != mem.Preempt {
			t.Fatalf("expected AbortError{Preempt}, got %v", r)
		}
	}()
	th.Load(100)
}

func TestCrashRemovesThreadButNotDone(t *testing.T) {
	m, _, sc, ts := newWorld(t, 3)
	steps := make([]*counterStepper, 3)
	for i, th := range ts {
		steps[i] = &counterStepper{cost: 100}
		sc.AddThread(th, steps[i])
	}
	sc.Run(10_000)
	mid := steps[2].steps
	sc.Crash(2)
	if !ts[2].Crashed() || ts[2].Done() {
		t.Fatal("crash state wrong")
	}
	sc.Run(50_000)
	if steps[2].steps != mid {
		t.Fatal("crashed thread kept stepping")
	}
	if steps[0].steps < 100 || steps[1].steps < 100 {
		t.Fatal("survivors stalled")
	}
	_ = m
}

func TestCrashAbortsInFlightTx(t *testing.T) {
	m, _, sc, ts := newWorld(t, 2)
	for _, th := range ts {
		sc.AddThread(th, &counterStepper{cost: 100})
	}
	tx := m.Begin(0)
	m.TxWrite(tx, 100, 1)
	sc.Crash(0)
	if active := tx.Active(); active {
		t.Fatal("crashed thread's transaction still active")
	}
	if m.Peek(100) != 0 {
		t.Fatal("crashed transaction's write leaked")
	}
}

func TestCrashIdempotent(t *testing.T) {
	_, _, sc, ts := newWorld(t, 2)
	for _, th := range ts {
		sc.AddThread(th, &counterStepper{cost: 100})
	}
	sc.Crash(1)
	sc.Crash(1) // second crash is a no-op
	sc.Crash(99)
	if !ts[1].Crashed() {
		t.Fatal("thread not crashed")
	}
}

func TestBlockedBackoffGrows(t *testing.T) {
	_, _, sc, ts := newWorld(t, 1)
	st := &counterStepper{cost: 10}
	polls := 0
	st.body = func(t *Thread) {
		if st.steps == 1 {
			t.Blocked = func() bool {
				polls++
				return false // never wakes
			}
		}
	}
	sc.AddThread(ts[0], st)
	sc.Run(100_000_000)
	// Without backoff this would take 250K polls; with exponential
	// backoff it must be orders of magnitude fewer.
	if polls > 5000 {
		t.Fatalf("blocked polling not backed off: %d polls", polls)
	}
	if polls < 10 {
		t.Fatalf("implausibly few polls: %d", polls)
	}
}

func TestTraceKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := TraceOpStart; k <= TraceSpanClose; k++ {
		s := k.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Fatalf("bad or duplicate name %q for kind %d", s, k)
		}
		seen[s] = true
	}
	if TraceKind(200).String() != "unknown" {
		t.Fatal("unknown kind should render as unknown")
	}
}

// edgeEvent is one scheduler-edge event as a tracer saw it.
type edgeEvent struct {
	tid  int
	kind TraceKind
	arg  uint64
}

// edgeRecorder keeps the hand-off and crash events it receives.
type edgeRecorder struct{ evs []edgeEvent }

func (r *edgeRecorder) TraceEvent(t *Thread, k TraceKind, arg uint64, _ cost.Cycles) {
	if k == TraceHandoff || k == TraceCrash {
		r.evs = append(r.evs, edgeEvent{t.ID, k, arg})
	}
}

// TestSchedulerEmitsHandoffAndCrash: a timeslice rotation and a finished
// occupant's retirement each report Handoff(out, in) on the outgoing
// thread — NoThread once the context empties — and Crash reports on the
// crashed thread.
func TestSchedulerEmitsHandoffAndCrash(t *testing.T) {
	newSingle := func(n int, limit int) (*Scheduler, []*Thread, *edgeRecorder) {
		m := mem.New(mem.Config{Words: 1 << 18})
		a := alloc.New(m)
		tp := topo.Topology{Cores: 1, ThreadsPerCore: 1, L1Lines: 512, ReadSetLines: 4096}
		sc := NewScheduler(m, tp, 1)
		rec := &edgeRecorder{}
		var ts []*Thread
		for i := 0; i < n; i++ {
			th := NewThread(i, m, a, uint64(i)+100)
			th.Scheme = NopReclaimer{}
			th.Tracer = rec
			sc.AddThread(th, &counterStepper{cost: 1000, limit: limit})
			ts = append(ts, th)
		}
		return sc, ts, rec
	}

	// rotate: two endless threads share one context; the timeslice
	// switches 0 out for 1, then 1 out for 0.
	sc, _, rec := newSingle(2, 0)
	sc.Run(cost.TimesliceQuantum * 3)
	if len(rec.evs) < 2 {
		t.Fatalf("rotation produced %d hand-offs, want at least 2: %v", len(rec.evs), rec.evs)
	}
	if rec.evs[0] != (edgeEvent{0, TraceHandoff, 1}) || rec.evs[1] != (edgeEvent{1, TraceHandoff, 0}) {
		t.Fatalf("rotation hand-offs %v, want 0->1 then 1->0", rec.evs[:2])
	}

	// retireFromContext: one-step threads finish in turn; the last leaves
	// the context empty.
	sc, _, rec = newSingle(2, 1)
	sc.Run(cost.TimesliceQuantum)
	want := []edgeEvent{{0, TraceHandoff, 1}, {1, TraceHandoff, NoThread}}
	if len(rec.evs) != len(want) || rec.evs[0] != want[0] || rec.evs[1] != want[1] {
		t.Fatalf("retirement hand-offs %v, want %v", rec.evs, want)
	}

	// Crash: reported once, on the crashed thread.
	sc, ts, rec := newSingle(2, 0)
	sc.Crash(1)
	sc.Crash(1)
	if len(rec.evs) != 1 || rec.evs[0] != (edgeEvent{1, TraceCrash, 0}) {
		t.Fatalf("crash events %v, want one Crash on thread 1", rec.evs)
	}
	if !ts[1].Crashed() {
		t.Fatal("thread 1 not crashed")
	}
}

func TestAbortErrorMessage(t *testing.T) {
	e := AbortError{Reason: mem.Capacity}
	if e.Error() == "" {
		t.Fatal("empty abort error message")
	}
}

func TestLoadStoreLocalModes(t *testing.T) {
	m, _, _, ts := newWorld(t, 1)
	th := ts[0]
	a := th.StackBase
	// Plain mode: immediate.
	th.StoreLocal(a, 11)
	if th.LoadLocal(a) != 11 {
		t.Fatal("plain local roundtrip failed")
	}
	// Fast mode: buffered until commit.
	th.Tx = m.Begin(th.ID)
	th.Mode = ModeFast
	th.StoreLocal(a, 22)
	if th.LoadLocal(a) != 22 {
		t.Fatal("tx local should see its own write")
	}
	if m.Peek(a) != 11 {
		t.Fatal("tx local write leaked before commit")
	}
	m.Commit(th.Tx)
	th.Tx = nil
	th.Mode = ModePlain
	if m.Peek(a) != 22 {
		t.Fatal("tx local write missing after commit")
	}
}

func TestFrameAddrAndSize(t *testing.T) {
	_, _, _, ts := newWorld(t, 1)
	th := ts[0]
	f := th.PushFrame(3)
	if f.Size() != 3 {
		t.Fatalf("Size = %d", f.Size())
	}
	if f.Addr(2) != th.StackBase+2 {
		t.Fatalf("Addr(2) = %#x", uint64(f.Addr(2)))
	}
	f.Set(1, word.Mark(th.StackBase))
	if f.GetPtr(1) != th.StackBase {
		t.Fatal("GetPtr should strip the mark")
	}
}

func TestThreadDenseIDsEnforced(t *testing.T) {
	_, _, sc, _ := newWorld(t, 0)
	m2 := mem.New(mem.Config{Words: 1 << 16})
	a2 := alloc.New(m2)
	th := NewThread(3, m2, a2, 1) // wrong id for first registration
	defer func() {
		if recover() == nil {
			t.Fatal("non-dense thread ids should panic")
		}
	}()
	sc.AddThread(th, &counterStepper{cost: 1})
}

func TestSetDoneStopsScheduling(t *testing.T) {
	_, _, sc, ts := newWorld(t, 1)
	st := &counterStepper{cost: 10}
	st.body = func(t *Thread) {
		if st.steps == 3 {
			t.SetDone()
		}
	}
	sc.AddThread(ts[0], st)
	sc.Run(100_000)
	// SetDone inside a step is observed by the scheduler via Done();
	// the stepper itself returning false keeps it running one extra
	// pick cycle at most.
	if st.steps > 4 {
		t.Fatalf("thread kept running after SetDone: %d steps", st.steps)
	}
}

func TestProtectDelegatesToScheme(t *testing.T) {
	_, _, _, ts := newWorld(t, 1)
	th := ts[0]
	got := -1
	th.Scheme = protectRecorder{&got}
	th.Protect(5, 0x40)
	if got != 5 {
		t.Fatal("Protect not delegated")
	}
}

type protectRecorder struct{ slot *int }

func (protectRecorder) Name() string                            { return "rec" }
func (protectRecorder) Attach(*Thread)                          {}
func (protectRecorder) BeginOp(*Thread, int)                    {}
func (protectRecorder) EndOp(*Thread)                           {}
func (p protectRecorder) Protect(_ *Thread, s int, _ word.Addr) { *p.slot = s }
func (protectRecorder) ProtectLoad(t *Thread, _ int, src word.Addr) uint64 {
	return t.Load(src)
}
func (protectRecorder) Retire(*Thread, word.Addr) {}
func (protectRecorder) Drain(*Thread)             {}
