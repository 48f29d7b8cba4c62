package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"stacktrack/internal/bench"
	"stacktrack/internal/cost"
	"stacktrack/internal/explore"
)

// unit is one item of work, checked on its own: a point of a committed
// quick sweep, or one schedule-fuzzing run.
type unit struct {
	name string       // "E1a/StackTrack/8" or "fuzz/list/Hazards/pct@17"
	exp  string       // committed baseline ("E1a", "E2b"); empty for fuzz
	cfg  bench.Config // the harness configuration the unit runs
	// fuzz is the exploration config of a fuzz run (nil for sweep
	// points); cfg is its harness translation.
	fuzz *explore.RunConfig
}

// defaultSeed is the harness's default seed, the one the committed
// BENCH_*.json baselines were produced under. Workload seed 0 selects it.
const defaultSeed = 0x57ACC7AC4

// paperExp is one committed quick sweep and the series each paper
// workload takes from it.
type paperExp struct {
	id, structure string
	st, smr       []string
}

var paperExps = []paperExp{
	{"E1a", bench.StructList, []string{bench.SchemeStackTrack},
		[]string{bench.SchemeOriginal, bench.SchemeHazards, bench.SchemeEpoch, bench.SchemeDTA}},
	{"E2b", bench.StructHash, []string{bench.SchemeStackTrack},
		[]string{bench.SchemeOriginal, bench.SchemeHazards, bench.SchemeEpoch}},
}

// quickConfig is the harness configuration of one point of a quick sweep
// (bench.QuickOptions), exactly as the sweep builds it.
func quickConfig(structure, scheme string, threads int, seed uint64) bench.Config {
	o := bench.QuickOptions()
	return bench.Config{
		Structure:     structure,
		Scheme:        scheme,
		Threads:       threads,
		Seed:          seed,
		WarmupCycles:  cost.FromSeconds(o.WarmupMs / 1000),
		MeasureCycles: cost.FromSeconds(o.MeasureMs / 1000),
	}.WithDefaults()
}

// paperUnits lists one pass of a paper workload in sweep order: thread
// counts outer, series inner.
func paperUnits(smr bool, seed uint64) []unit {
	var out []unit
	for _, e := range paperExps {
		series := e.st
		if smr {
			series = e.smr
		}
		for _, n := range bench.QuickOptions().Threads {
			for _, s := range series {
				out = append(out, unit{
					name: fmt.Sprintf("%s/%s/%d", e.id, s, n),
					exp:  e.id,
					cfg:  quickConfig(e.structure, s, n, seed),
				})
			}
		}
	}
	return out
}

// fuzzConfigs is the schedule-fuzzing matrix, in explore's defaults
// otherwise. The linearizability oracle runs under the vtime strategy
// only: its intervals are virtual times, and random and pct schedules do
// not run threads in virtual-time order, so under them it reports
// orders no execution had.
func fuzzConfigs() []explore.RunConfig {
	var out []explore.RunConfig
	for _, st := range []string{bench.StructList, bench.StructHash, bench.StructSkipList, bench.StructQueue} {
		for _, sc := range []string{bench.SchemeStackTrack, bench.SchemeHazards, bench.SchemeEpoch} {
			for _, strat := range []string{explore.StrategyRandom, explore.StrategyPCT, explore.StrategyVTime} {
				if strat == explore.StrategyVTime && st == bench.StructQueue {
					continue // no set semantics to check
				}
				out = append(out, explore.RunConfig{
					Structure: st, Scheme: sc, Strategy: strat,
					CheckLin: strat == explore.StrategyVTime,
				})
			}
		}
	}
	return out
}

// fuzzUnits lists one pass of the fuzz workload: every matrix entry once,
// each with its own run seed derived from the workload seed. Every pass
// repeats the same runs, so passes are comparable.
func fuzzUnits(seed uint64) []unit {
	cfgs := fuzzConfigs()
	out := make([]unit, len(cfgs))
	for i, rc := range cfgs {
		rc.Seed = 1 + seed*uint64(len(cfgs)) + uint64(i)
		rc = rc.WithDefaults()
		out[i] = unit{
			name: fmt.Sprintf("fuzz/%s/%s/%s@%d", rc.Structure, rc.Scheme, rc.Strategy, rc.Seed),
			cfg:  fuzzBenchConfig(rc),
			fuzz: &rc,
		}
	}
	return out
}

// fuzzBenchConfig is the harness configuration explore.Record builds for
// rc (explore's unexported benchConfig, restated from its public
// fields).
func fuzzBenchConfig(rc explore.RunConfig) bench.Config {
	return bench.Config{
		Structure:     rc.Structure,
		Scheme:        rc.Scheme,
		Threads:       rc.Threads,
		Seed:          rc.Seed,
		InitialSize:   rc.InitialSize,
		KeyRange:      rc.KeyRange,
		MutatePct:     rc.MutatePct,
		Buckets:       rc.Buckets,
		QueuePrefill:  rc.QueuePrefill,
		WarmupCycles:  rc.WarmupCycles,
		MeasureCycles: rc.MeasureCycles,
		MemWords:      rc.MemWords,
		CrashThreads:  rc.CrashThreads,
		Validate:      true,
		History:       rc.CheckLin && rc.CrashThreads == 0,
	}.WithDefaults()
}

// refs holds the reference outputs units are checked against.
type refs struct {
	points    map[string]bench.PointJSON // by unit name, default seed
	fuzzSteps map[string]uint64          // by unit name, workload seed 0
}

// fuzzRefFile holds the decision count of every fuzz run at workload
// seed 0 (written by -write-fuzz-ref).
const fuzzRefFile = "perfbench/fuzz_steps.json"

func loadRefs(root string) (*refs, error) {
	r := &refs{points: map[string]bench.PointJSON{}}
	for _, e := range paperExps {
		doc, err := bench.ReadResultsJSON(filepath.Join(root, "BENCH_"+e.id+".json"))
		if err != nil {
			return nil, err
		}
		for _, ex := range doc.Experiments {
			if ex.ID != e.id || ex.Options.Seed != defaultSeed {
				return nil, fmt.Errorf("BENCH_%s.json: unexpected experiment %s (seed %d)", e.id, ex.ID, ex.Options.Seed)
			}
			for _, p := range ex.Points {
				r.points[fmt.Sprintf("%s/%s/%d", e.id, p.Series, p.Threads)] = p
			}
		}
	}
	b, err := os.ReadFile(filepath.Join(root, fuzzRefFile))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &r.fuzzSteps); err != nil {
		return nil, fmt.Errorf("%s: %w", fuzzRefFile, err)
	}
	for _, u := range fuzzUnits(0) {
		if _, ok := r.fuzzSteps[u.name]; !ok {
			return nil, fmt.Errorf("%s has no entry for %s; regenerate it with -write-fuzz-ref", fuzzRefFile, u.name)
		}
	}
	return r, nil
}

// checkPoint verifies a sweep point. At the default seed its ops,
// throughput and metric snapshot must equal the committed baseline byte
// for byte; at any seed it must conserve keys, read no freed memory, and
// leave no retired node pending after the drain. Result.LeakedObjects is
// not checked: it also counts deleted nodes that are marked but not yet
// unlinked when the drain ends (one such node on E2b/Hazards/16 at the
// default seed), so the traced run reports it as a count instead.
func (r *refs) checkPoint(u unit, res *bench.Result) error {
	if u.cfg.Seed == defaultSeed {
		p, ok := r.points[u.name]
		if !ok {
			return fmt.Errorf("no committed baseline point")
		}
		if res.Ops != p.Ops || res.Throughput != p.Throughput {
			return fmt.Errorf("ops/throughput %d/%v, baseline %d/%v", res.Ops, res.Throughput, p.Ops, p.Throughput)
		}
		got, err := json.Marshal(res.Metrics)
		if err != nil {
			return err
		}
		want, err := json.Marshal(p.Metrics)
		if err != nil {
			return err
		}
		if string(got) != string(want) {
			return fmt.Errorf("metric snapshot differs from BENCH_%s.json", u.exp)
		}
	}
	if want := u.cfg.InitialSize + int(res.TotalInserts) - int(res.TotalDeletes); res.FinalCount != want {
		return fmt.Errorf("conservation: final count %d, ledger %d", res.FinalCount, want)
	}
	if res.UAFReads != 0 {
		return fmt.Errorf("%d use-after-free reads", res.UAFReads)
	}
	if res.PendingFrees != 0 {
		return fmt.Errorf("%d retired nodes still pending after the drain", res.PendingFrees)
	}
	return nil
}

// checkFuzz verifies a fuzz run: every oracle passes, and at workload
// seed 0 the run makes exactly the recorded number of scheduling
// decisions.
func (r *refs) checkFuzz(u unit, out *explore.Outcome) error {
	if out.Verdict.Failed {
		return fmt.Errorf("%s", out.Verdict)
	}
	if want, ok := r.fuzzSteps[u.name]; ok && out.Steps != want {
		return fmt.Errorf("%d decisions, reference %d", out.Steps, want)
	}
	return nil
}
