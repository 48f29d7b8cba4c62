package bench

import (
	"testing"

	"stacktrack/internal/cost"
)

// effectsTestConfig is a small multi-structure-capable run config.
func effectsTestConfig(structure string) Config {
	return Config{
		Structure:     structure,
		Scheme:        SchemeStackTrack,
		Threads:       4,
		InitialSize:   256,
		KeyRange:      512,
		MutatePct:     40,
		QueuePrefill:  64,
		WarmupCycles:  cost.FromSeconds(0.001),
		MeasureCycles: cost.FromSeconds(0.004),
		Validate:      true,
	}
}

// TestEffectOracleCleanAllStructures: every shipped operation's declared
// effect sets must hold on every dynamically executed block — across all
// five structures under StackTrack, where aborts and retries drive the
// blocks through their full branch space.
func TestEffectOracleCleanAllStructures(t *testing.T) {
	for _, s := range []string{StructList, StructSkipList, StructQueue, StructHash, StructRBTree} {
		cfg := effectsTestConfig(s)
		cfg.CheckEffects = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.San == nil {
			t.Fatalf("%s: CheckEffects set but Result.San is nil", s)
		}
		if res.San.EffectViolations != 0 {
			t.Errorf("%s: effect violations on shipped annotations:\n%s", s, res.San)
		}
	}
}
