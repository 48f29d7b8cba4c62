package explore

import "testing"

// TestMinimizeShrinksScheduleDependentFailure exercises ddmin on a failure
// that genuinely depends on the explored schedule: at this workload the
// vtime strategy passes but the random walk hits a use-after-free (seed
// calibrated; asserted below so drift is caught loudly).
func TestMinimizeShrinksScheduleDependentFailure(t *testing.T) {
	base, err := Record(raceCfg("list", StrategyVTime, 6))
	if err != nil {
		t.Fatal(err)
	}
	if base.Verdict.Failed {
		t.Fatalf("calibration drifted: vtime strategy now fails (%s)", base.Verdict)
	}
	out, err := Record(raceCfg("list", StrategyRandom, 6))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verdict.Failed {
		t.Fatal("calibration drifted: random strategy no longer fails seed 6")
	}

	min, err := Minimize(out.Log, MinimizeOptions{MaxRuns: 400, SameOracle: true})
	if err != nil {
		t.Fatal(err)
	}
	if min.ToDecisions >= min.FromDecisions {
		t.Fatalf("no shrink: %d -> %d decisions", min.FromDecisions, min.ToDecisions)
	}
	// The schedule is genuinely load-bearing: removing everything passes, so
	// the reduced log cannot be empty.
	if min.ToDecisions == 0 {
		t.Fatal("minimized to an empty schedule, but vtime passes this seed")
	}
	if min.Verdict.Oracle != out.Verdict.Oracle {
		t.Fatalf("minimization changed the oracle: %s -> %s",
			out.Verdict.Oracle, min.Verdict.Oracle)
	}
	// The artifact must stand on its own: a fresh replay still fails.
	rep, _, err := ReplayLog(min.Log, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verdict.Failed || rep.Verdict.Oracle != out.Verdict.Oracle {
		t.Fatalf("minimized log does not reproduce: %s", rep.Verdict)
	}
	t.Logf("ddmin: %d -> %d decisions in %d runs (1-minimal: %v)",
		min.FromDecisions, min.ToDecisions, min.Runs, min.OneMinimal)
}

func TestMinimizeRefusesPassingLog(t *testing.T) {
	out, _, err := RecordTraced(tinyCfg("list", "stacktrack", StrategyRandom, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict.Failed {
		t.Fatalf("safe scheme failed: %s", out.Verdict)
	}
	if _, err := Minimize(out.Log, MinimizeOptions{}); err == nil {
		t.Fatal("Minimize accepted a passing schedule")
	}
}

// A failure that does NOT depend on the recorded deviations must minimize
// all the way to the empty decision list in a handful of runs.
func TestMinimizeScheduleIndependentFailureToEmpty(t *testing.T) {
	out, err := Record(tinyCfg("list", "unsafe", StrategyRandom, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verdict.Failed {
		t.Fatal("calibration drifted: unsafe scheme passes tinyCfg")
	}
	min, err := Minimize(out.Log, MinimizeOptions{MaxRuns: 100})
	if err != nil {
		t.Fatal(err)
	}
	if min.ToDecisions != 0 {
		t.Fatalf("expected empty minimal schedule, got %d decisions", min.ToDecisions)
	}
	if !min.OneMinimal {
		t.Fatal("empty result not marked 1-minimal")
	}
}
