package explore

import (
	"encoding/json"
	"testing"

	"stacktrack/internal/bench"
	"stacktrack/internal/cost"
)

// tinyCfg is a deliberately small workload (fractions of a simulated
// millisecond) so each test run takes single-digit host milliseconds.
func tinyCfg(structure, scheme, strategy string, seed uint64) RunConfig {
	return RunConfig{
		Structure: structure, Scheme: scheme, Strategy: strategy, Seed: seed,
		Threads: 3, MutatePct: 60, KeyRange: 48, InitialSize: 24,
		WarmupCycles:  cost.FromSeconds(0.00005),
		MeasureCycles: cost.FromSeconds(0.0002),
	}
}

// raceCfg is the calibrated schedule-dependent workload: under the unsafe
// scheme the vtime strategy passes but perturbed schedules hit races.
func raceCfg(structure, strategy string, seed uint64) RunConfig {
	return RunConfig{
		Structure: structure, Scheme: "unsafe", Strategy: strategy, Seed: seed,
		Threads: 2, MutatePct: 40, KeyRange: 128, InitialSize: 64,
		WarmupCycles:  cost.FromSeconds(0.00005),
		MeasureCycles: cost.FromSeconds(0.0001),
	}
}

func TestWithDefaults(t *testing.T) {
	cfg := RunConfig{}.WithDefaults()
	if cfg.Structure == "" || cfg.Scheme == "" || cfg.Threads <= 0 {
		t.Fatalf("defaults left zero fields: %+v", cfg)
	}
	if cfg.Strategy != StrategyRandom {
		t.Fatalf("default strategy = %q, want %q", cfg.Strategy, StrategyRandom)
	}
	if cfg.StratSeed == 0 {
		t.Fatal("default StratSeed not derived from Seed")
	}
	// Distinct run seeds must derive distinct strategy seeds.
	other := RunConfig{Seed: 2}.WithDefaults()
	if other.StratSeed == cfg.StratSeed {
		t.Fatal("StratSeed does not vary with Seed")
	}
}

func TestNewStrategyRejectsUnknown(t *testing.T) {
	cfg := tinyCfg("list", "stacktrack", "quantum-foam", 1).WithDefaults()
	cfg.Strategy = "quantum-foam"
	if _, err := NewStrategy(cfg); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestVTimeStrategyRecordsEmptyLog(t *testing.T) {
	out, _, err := RecordTraced(tinyCfg("list", "stacktrack", StrategyVTime, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(out.Log.Decisions); n != 0 {
		t.Fatalf("vtime strategy deviated from the default rule %d times", n)
	}
	if out.Steps == 0 {
		t.Fatal("run made no scheduling decisions")
	}
	if out.Verdict.Failed {
		t.Fatalf("safe scheme failed: %s", out.Verdict)
	}
}

func TestPerturbingStrategiesDeviate(t *testing.T) {
	for _, strat := range []string{StrategyRandom, StrategyPCT} {
		out, _, err := RecordTraced(tinyCfg("list", "stacktrack", strat, 1), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Log.Decisions) == 0 {
			t.Errorf("%s strategy never deviated from the virtual-time rule", strat)
		}
		if out.Verdict.Failed {
			t.Errorf("%s on a safe scheme failed: %s", strat, out.Verdict)
		}
	}
}

func TestRecordIsDeterministic(t *testing.T) {
	cfg := tinyCfg("list", "hp", StrategyPCT, 3)
	a, _, err := RecordTraced(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RecordTraced(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps || len(a.Log.Decisions) != len(b.Log.Decisions) {
		t.Fatalf("re-record diverged: %d/%d steps, %d/%d decisions",
			a.Steps, b.Steps, len(a.Log.Decisions), len(b.Log.Decisions))
	}
	if a.Result.Ops != b.Result.Ops {
		t.Fatalf("re-record ops diverged: %d vs %d", a.Result.Ops, b.Result.Ops)
	}
}

func TestUnsafeSchemeFailsPoisonOracle(t *testing.T) {
	// At this workload density the unsafe scheme races even under the
	// default schedule; the poison oracle must catch it.
	out, err := Record(tinyCfg("list", "unsafe", StrategyVTime, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verdict.Failed {
		t.Fatal("unsafe scheme passed a high-contention workload")
	}
	if out.Verdict.Oracle != OraclePoison {
		t.Fatalf("oracle = %s, want %s", out.Verdict.Oracle, OraclePoison)
	}
	if out.Log.Oracle != out.Verdict.Oracle {
		t.Fatalf("log oracle %q != verdict oracle %q", out.Log.Oracle, out.Verdict.Oracle)
	}
}

// TestRecordLogOnlyOnFailure pins Record's contract: a passing run keeps
// no schedule log yet counts the same decisions as a recorded run, and a
// failing run's log, materialized by the recording re-run, replays to the
// same verdict.
func TestRecordLogOnlyOnFailure(t *testing.T) {
	for _, strat := range []string{StrategyRandom, StrategyPCT} {
		cfg := tinyCfg("list", "stacktrack", strat, 1)
		out, err := Record(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out.Verdict.Failed {
			t.Fatalf("%s on a safe scheme failed: %s", strat, out.Verdict)
		}
		if out.Log != nil {
			t.Errorf("%s: passing run carries a log of %d decisions", strat, len(out.Log.Decisions))
		}
		if out.Steps != out.Result.Decisions {
			t.Errorf("%s: Steps %d, Result.Decisions %d", strat, out.Steps, out.Result.Decisions)
		}
		traced, _, err := RecordTraced(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out.Steps != traced.Steps {
			t.Errorf("%s: bare run made %d decisions, recorded run %d", strat, out.Steps, traced.Steps)
		}
	}

	out, err := Record(raceCfg("list", StrategyRandom, 6))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verdict.Failed {
		t.Fatal("calibration drifted: random strategy no longer fails raceCfg seed 6")
	}
	if out.Log == nil {
		t.Fatal("failing run carries no log")
	}
	if out.Log.Oracle != out.Verdict.Oracle {
		t.Fatalf("log oracle %q != verdict oracle %q", out.Log.Oracle, out.Verdict.Oracle)
	}
	rep, _, err := ReplayLog(out.Log, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != out.Verdict {
		t.Fatalf("materialized log replays to %s, recorded %s", rep.Verdict, out.Verdict)
	}
}

// TestRecordVTimeMatchesPolicy pins that Record's bare vtime run, which
// installs no policy and so takes the scheduler's policy-free loop, is
// the same run as one under an explicit VTime policy, which takes the
// Policy loop: same verdict, decision count and simulated metrics.
func TestRecordVTimeMatchesPolicy(t *testing.T) {
	for _, structure := range []string{"list", "hash", "skiplist"} {
		cfg := tinyCfg(structure, "stacktrack", StrategyVTime, 1)
		cfg.Threads = 12 // oversubscribed: rotation on both loops
		cfg.CheckLin = true
		out, err := Record(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg.WithDefaults()
		res, v, err := runJudged(c, c.benchConfig(), VTime{}, bench.Run)
		if err != nil {
			t.Fatal(err)
		}
		if out.Verdict != v {
			t.Errorf("%s: bare verdict %s, VTime policy %s", structure, out.Verdict, v)
		}
		if out.Steps != res.Decisions {
			t.Errorf("%s: bare run made %d decisions, VTime policy %d", structure, out.Steps, res.Decisions)
		}
		got, err := json.Marshal(out.Result.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(res.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: bare run's metrics differ from the VTime policy run's", structure)
		}
	}
}
