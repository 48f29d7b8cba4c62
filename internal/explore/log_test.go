package explore

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestReplayRoundTrip is the subsystem's load-bearing property: a recorded
// schedule log replayed through the Replay policy reproduces the run
// bit-for-bit — the full trace event streams are identical, not just the
// aggregate counters.
func TestReplayRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		cfg  RunConfig
	}{
		{"vtime-safe", tinyCfg("list", "stacktrack", StrategyVTime, 1)},
		{"random-safe", tinyCfg("list", "stacktrack", StrategyRandom, 1)},
		{"pct-safe", tinyCfg("skiplist", "hp", StrategyPCT, 2)},
		{"random-unsafe", tinyCfg("list", "unsafe", StrategyRandom, 1)},
		{"pct-unsafe", tinyCfg("hash", "unsafe", StrategyPCT, 3)},
	}
	const events = 1 << 14
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, recTrace, err := RecordTraced(tc.cfg, events)
			if err != nil {
				t.Fatal(err)
			}
			rep, repTrace, err := ReplayLog(rec.Log, events)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Verdict != rep.Verdict {
				t.Fatalf("verdict changed on replay: recorded %s, replayed %s",
					rec.Verdict, rep.Verdict)
			}
			if rec.Result.Ops != rep.Result.Ops {
				t.Fatalf("ops changed on replay: %d vs %d", rec.Result.Ops, rep.Result.Ops)
			}
			a, b := recTrace.Events(), repTrace.Events()
			if len(a) != len(b) {
				t.Fatalf("trace length changed on replay: %d vs %d events", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trace diverges at event %d: recorded %+v, replayed %+v",
						i, a[i], b[i])
				}
			}
			if recTrace.Dropped() != repTrace.Dropped() {
				t.Fatalf("dropped-event counts differ: %d vs %d",
					recTrace.Dropped(), repTrace.Dropped())
			}
		})
	}
}

func TestLogFileRoundTrip(t *testing.T) {
	out, err := Record(tinyCfg("list", "unsafe", StrategyRandom, 1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.schedule")
	if err := out.Log.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, out.Log) {
		t.Fatal("log changed across WriteFile/LoadLog")
	}
	// And the loaded artifact still reproduces the run.
	rep, _, err := ReplayLog(got, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != out.Verdict {
		t.Fatalf("loaded log replays to %s, recorded %s", rep.Verdict, out.Verdict)
	}
}

func TestLoadLogRejectsUnsortedDecisions(t *testing.T) {
	log := &Log{
		Config:    tinyCfg("list", "unsafe", StrategyRandom, 1).WithDefaults(),
		Decisions: []Decision{{N: 9, Pick: 1, Pre: -1}, {N: 4, Pick: 1, Pre: -1}},
	}
	path := filepath.Join(t.TempDir(), "bad.schedule")
	if err := log.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLog(path); err == nil {
		t.Fatal("out-of-order decision list accepted")
	}
}

// TestLoadLogRejectsInvalidConfig: an artifact is input from outside the
// program, so a configuration the harness cannot run must fail at load,
// before any replay builds a machine from it.
func TestLoadLogRejectsInvalidConfig(t *testing.T) {
	base := tinyCfg("list", "unsafe", StrategyRandom, 1)
	for name, mutate := range map[string]func(*RunConfig){
		"strategy":     func(c *RunConfig) { c.Strategy = "quantum-foam" },
		"structure":    func(c *RunConfig) { c.Structure = "heap" },
		"scheme":       func(c *RunConfig) { c.Scheme = "gc" },
		"threads":      func(c *RunConfig) { c.Threads = 1000 },
		"crash":        func(c *RunConfig) { c.CrashThreads = -1 },
		"key-range":    func(c *RunConfig) { c.KeyRange = uint64(c.InitialSize) - 1 },
		"mutate":       func(c *RunConfig) { c.MutatePct = 101 },
		"buckets":      func(c *RunConfig) { c.Buckets = -4 },
		"mem-words":    func(c *RunConfig) { c.MemWords = 1 << 40 },
		"depth":        func(c *RunConfig) { c.Depth = 1 << 40 },
		"preempt-prob": func(c *RunConfig) { c.PreemptProb = 2 },
	} {
		cfg := base
		mutate(&cfg)
		path := filepath.Join(t.TempDir(), name+".schedule")
		if err := (&Log{Config: cfg}).WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadLog(path); err == nil {
			t.Errorf("%s: invalid configuration accepted: %+v", name, cfg)
		}
	}
	path := filepath.Join(t.TempDir(), "ok.schedule")
	if err := (&Log{Config: base}).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLog(path); err != nil {
		t.Fatalf("valid configuration rejected: %v", err)
	}
}

// TestReplayToleratesArbitrarySubsets: ddmin removes decision chunks with no
// alignment fix-ups, so replay must accept any subset — decisions whose
// moment never comes or whose pick is out of range are skipped, and the run
// still completes deterministically.
func TestReplayToleratesArbitrarySubsets(t *testing.T) {
	out, err := Record(tinyCfg("list", "unsafe", StrategyRandom, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Log.Decisions) < 4 {
		t.Fatalf("need a few decisions to subset, got %d", len(out.Log.Decisions))
	}
	half := out.Log.Decisions[:0:0]
	for i, d := range out.Log.Decisions {
		if i%2 == 0 {
			half = append(half, d)
		}
	}
	// Also distort one pick far out of range: replay must skip it.
	distorted := append([]Decision(nil), half...)
	distorted[0].Pick = 1 << 20
	for _, ds := range [][]Decision{half, distorted, nil} {
		rep, _, err := ReplayLog(&Log{Config: out.Config, Decisions: ds}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Result == nil && !rep.Verdict.Failed {
			t.Fatal("subset replay produced neither result nor verdict")
		}
	}
}
