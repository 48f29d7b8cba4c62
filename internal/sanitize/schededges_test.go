package sanitize_test

// The sanitizer's two scheduler edges, pinned through a real scheduler: a
// context hand-off orders the outgoing thread before the incoming one,
// and a crashed thread's last accesses stop taking part in race reports.

import (
	"testing"

	"stacktrack/internal/alloc"
	"stacktrack/internal/mem"
	"stacktrack/internal/sanitize"
	"stacktrack/internal/sched"
	"stacktrack/internal/topo"
	"stacktrack/internal/word"
)

// stepFunc adapts a closure to sched.Stepper.
type stepFunc func(t *sched.Thread) bool

func (f stepFunc) Step(t *sched.Thread) bool { return f(t) }

// edgeWorld runs two threads on `contexts` single-hyperthread cores under
// a sanitizer, with one shared two-word heap object. The thread bodies
// come from steps, which sees the world (and so the object).
type edgeWorld struct {
	sc  *sched.Scheduler
	san *sanitize.Sanitizer
	obj word.Addr
}

func newEdgeWorld(t *testing.T, contexts int, steps func(w *edgeWorld) [2]stepFunc) *edgeWorld {
	t.Helper()
	m := mem.New(mem.Config{Words: 1 << 18})
	al := alloc.New(m)
	tp := topo.Topology{Cores: contexts, ThreadsPerCore: 1, L1Lines: 512, ReadSetLines: 4096}
	sc := sched.NewScheduler(m, tp, 1)
	san := sanitize.New(2)
	m.SetObserver(san)
	al.SetObserver(san)
	var threads []*sched.Thread
	for i := 0; i < 2; i++ {
		th := sched.NewThread(i, m, al, uint64(i)+1)
		th.Scheme = sched.NopReclaimer{}
		th.Tracer = san
		threads = append(threads, th)
	}
	san.Attach(threads, al)
	w := &edgeWorld{sc: sc, san: san, obj: al.Alloc(0, 2)}
	for i, st := range steps(w) {
		sc.AddThread(threads[i], st)
	}
	return w
}

// writeOnce is a thread body that stores to the shared object once and
// finishes.
func (w *edgeWorld) writeOnce(v uint64) stepFunc {
	return func(t *sched.Thread) bool {
		t.Charge(100)
		t.StorePlain(w.obj, v)
		return true
	}
}

// TestHandoffOrdersSameContextWrites: two threads write the same heap
// word one after the other. On one hardware context the second runs only
// after the first is switched out, and that hand-off orders the writes;
// on two contexts nothing orders them and the second write races.
func TestHandoffOrdersSameContextWrites(t *testing.T) {
	for _, tc := range []struct {
		contexts int
		races    uint64
	}{{1, 0}, {2, 1}} {
		w := newEdgeWorld(t, tc.contexts, func(w *edgeWorld) [2]stepFunc {
			return [2]stepFunc{w.writeOnce(1), w.writeOnce(2)}
		})
		w.sc.Run(10_000)
		if got := w.san.Summary().DataRaces; got != tc.races {
			t.Fatalf("%d context(s): %d data races, want %d", tc.contexts, got, tc.races)
		}
	}
}

// TestCrashedThreadLeavesRaceReports: thread 0 writes the shared word and
// keeps running; thread 1 later writes it with nothing ordering the two.
// That conflict is a race while thread 0 lives, and is not reported once
// thread 0 has crashed before the second write.
func TestCrashedThreadLeavesRaceReports(t *testing.T) {
	for _, crash := range []bool{false, true} {
		armed, wrote := false, false
		w := newEdgeWorld(t, 2, func(w *edgeWorld) [2]stepFunc {
			return [2]stepFunc{
				func(th *sched.Thread) bool {
					th.Charge(100)
					if !wrote {
						th.StorePlain(w.obj, 1)
						wrote = true
					}
					return false
				},
				func(th *sched.Thread) bool {
					if !armed {
						th.Charge(100)
						return false
					}
					return w.writeOnce(2)(th)
				},
			}
		})
		w.sc.Run(1_000)
		if !wrote {
			t.Fatal("thread 0 never wrote")
		}
		if crash {
			w.sc.Crash(0)
		}
		armed = true
		w.sc.Run(2_000)
		want := uint64(1)
		if crash {
			want = 0
		}
		if got := w.san.Summary().DataRaces; got != want {
			t.Fatalf("crash=%v: %d data races, want %d", crash, got, want)
		}
	}
}
