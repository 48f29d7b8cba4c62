package bench

import (
	"encoding/json"
	"testing"
)

// TestSanitizeBitIdenticalJSON is the analysis layers' read-only
// guarantee: the sanitizer, the effect oracle, the cycle profiler and the
// trace recorder observe but never charge cycles or change state, so with
// any of them on — alone, or all four fanned out on one lifecycle seam —
// every point exports byte-for-byte the same JSON as a plain run, and the
// post-drain state matches too. Only the analysis-only outputs (the
// profile field, Result.Folded/Trace/San) may differ.
func TestSanitizeBitIdenticalJSON(t *testing.T) {
	profiled := Config{
		Structure:     StructList,
		Scheme:        SchemeStackTrack,
		Threads:       3,
		MeasureCycles: 2_000_000,
		WarmupCycles:  200_000,
	}
	oversub := Config{
		Structure:     StructHash,
		Scheme:        SchemeHazards,
		Threads:       12,
		MeasureCycles: 1_000_000,
		WarmupCycles:  200_000,
	}
	crashed := Config{
		Structure:     StructList,
		Scheme:        SchemeEpoch,
		Threads:       4,
		CrashThreads:  1,
		MeasureCycles: 1_000_000,
		WarmupCycles:  200_000,
	}
	anchored := Config{
		Structure:     StructList,
		Scheme:        SchemeDTA,
		Threads:       2,
		MeasureCycles: 1_000_000,
		WarmupCycles:  200_000,
	}
	points := []Config{profiled, effectsTestConfig(StructList), oversub, crashed, anchored}

	sanitize := func(c *Config) { c.Sanitize = true }
	effects := func(c *Config) { c.CheckEffects = true }
	profile := func(c *Config) { c.Profile = true }
	traced := func(c *Config) { c.TraceEvents = 1 << 12 }
	cases := []struct {
		name string
		on   []func(*Config)
	}{
		{"Sanitize", []func(*Config){sanitize}},
		{"CheckEffects", []func(*Config){effects}},
		{"Profile", []func(*Config){profile}},
		{"TraceEvents", []func(*Config){traced}},
		{"All", []func(*Config){sanitize, effects, profile, traced}},
	}

	digest := func(cfg Config) ([]byte, *Result) {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(%+v): %v", cfg, err)
		}
		pt := pointJSON(cfg.Scheme, cfg.Threads, res)
		pt.Profile = nil
		b, err := json.MarshalIndent(struct {
			Point                                PointJSON
			SuccInserts, SuccDeletes, Hits       uint64
			TotalInserts, TotalDeletes           uint64
			FinalCount, PendingFrees             int
			UAFReads, LiveObjects, LeakedObjects uint64
			Core                                 any
			Mem                                  any
		}{
			pt, res.SuccInserts, res.SuccDeletes, res.Hits,
			res.TotalInserts, res.TotalDeletes,
			res.FinalCount, res.PendingFrees,
			res.UAFReads, res.LiveObjects, res.LeakedObjects,
			res.Core, res.Mem,
		}, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return b, res
	}

	plain := make([][]byte, len(points))
	for i, cfg := range points {
		plain[i], _ = digest(cfg)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i, cfg := range points {
				for _, on := range tc.on {
					on(&cfg)
				}
				got, res := digest(cfg)
				if string(got) != string(plain[i]) {
					t.Fatalf("%s/%s/%d threads: the exported point changed:\n--- without ---\n%.2000s\n--- with ---\n%.2000s",
						cfg.Structure, cfg.Scheme, cfg.Threads, plain[i], got)
				}
				// The analyses must actually have run.
				if cfg.Profile && (res.Profile == nil || res.Profile.TotalCycles == 0 || res.Folded == "") {
					t.Fatal("profiled run produced no profile or folded stacks")
				}
				if cfg.TraceEvents > 0 && (res.Trace == nil || res.Trace.Len() == 0) {
					t.Fatal("traced run recorded no events")
				}
				if (cfg.Sanitize || cfg.CheckEffects) && res.San == nil {
					t.Fatal("analysis run produced no report bundle")
				}
			}
		})
	}
}

// TestSanitizeCleanOnSoundSchemes: a correct reclamation scheme must
// produce zero sanitizer findings — no unordered conflicting accesses
// (its protocol is the synchronization the detector tracks) and no
// touches of freed or redzone words.
func TestSanitizeCleanOnSoundSchemes(t *testing.T) {
	for _, scheme := range []string{SchemeStackTrack, SchemeHazards, SchemeEpoch, SchemeDTA, SchemeRefCount, SchemeOriginal} {
		for _, structure := range []string{StructList, StructHash} {
			cfg := Config{
				Structure:     structure,
				Scheme:        scheme,
				Threads:       4,
				InitialSize:   64,
				KeyRange:      128,
				MutatePct:     40,
				WarmupCycles:  1,
				MeasureCycles: 2_000_000,
				Sanitize:      true,
				Validate:      true,
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", scheme, structure, err)
			}
			if res.San == nil {
				t.Fatalf("%s/%s: Sanitize set but Result.San is nil", scheme, structure)
			}
			if !res.San.Clean() {
				t.Errorf("%s/%s: sanitizer findings on a sound scheme:\n%s", scheme, structure, res.San)
			}
			if res.UAFReads != 0 {
				t.Errorf("%s/%s: %d poison reads", scheme, structure, res.UAFReads)
			}
		}
	}
}
