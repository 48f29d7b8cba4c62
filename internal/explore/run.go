package explore

// Single-run execution: Record runs a strategy and judges the run, keeping
// a schedule log only when the verdict fails; ReplayLog re-drives a run
// from a log. Both recover simulated crashes (allocator panics) into the
// crash oracle instead of killing the process.

import (
	"fmt"

	"stacktrack/internal/bench"
	"stacktrack/internal/sched"
	"stacktrack/internal/snap"
	"stacktrack/internal/trace"
)

// Outcome is one completed exploration run.
type Outcome struct {
	Config  RunConfig
	Verdict Verdict
	// Log is the recorded schedule. Record and the explore driver set it
	// iff the verdict failed; RecordTraced always sets it; nil after
	// ReplayLog.
	Log *Log
	// Result is the raw harness result; nil when the run crashed.
	Result *bench.Result
	// Steps counts scheduling decisions (Record only).
	Steps uint64
	// Applied lists the deviations that fired (ReplayLog only).
	Applied []Applied
}

// runFunc executes one configured simulation to completion: bench.Run
// from the initial state, or fromSnapshot from a checkpoint.
type runFunc func(bench.Config) (*bench.Result, error)

// fromSnapshot resumes the simulation checkpointed in st. Restoring only
// reads the shared *snap.State, so concurrent workers fork it safely.
func fromSnapshot(st *snap.State) runFunc {
	return func(bc bench.Config) (*bench.Result, error) {
		ses, err := bench.SessionFromSnapshot(bc, st)
		if err != nil {
			return nil, err
		}
		return ses.Finish()
	}
}

// runJudged executes one simulation under the given policy and judges it.
// A non-nil error is a configuration problem; simulated crashes (allocator
// panics) become the crash oracle's verdict instead.
func runJudged(cfg RunConfig, bc bench.Config, policy sched.Policy, run runFunc) (res *bench.Result, v Verdict, err error) {
	bc.Policy = policy
	var crash any
	func() {
		defer func() { crash = recover() }()
		res, err = run(bc)
	}()
	if err != nil {
		return nil, Verdict{}, err
	}
	return res, judge(cfg, res, crash), nil
}

// record runs cfg under its strategy, resumed at decision n0 (0 for a run
// from scratch), and judges it. Unless alwaysLog is set, the strategy runs
// bare: a passing run allocates no schedule log. A failing run is repeated
// under a Recording to materialize its deviation list; the run is a
// function of cfg (strategy and StratSeed included), so the repeat must
// reach the same verdict, and an error reports when it does not.
func record(cfg RunConfig, bc bench.Config, run runFunc, n0 uint64, alwaysLog bool) (*Outcome, error) {
	strat, err := NewStrategy(cfg)
	if err != nil {
		return nil, err
	}
	var bare Verdict
	if !alwaysLog {
		res, v, err := runJudged(cfg, bc, strat, run)
		if err != nil {
			return nil, err
		}
		if !v.Failed {
			return &Outcome{Config: cfg, Verdict: v, Result: res, Steps: res.Decisions}, nil
		}
		bare = v
		if strat, err = NewStrategy(cfg); err != nil {
			return nil, err
		}
	}
	rec := NewRecordingAt(strat, n0)
	res, v, err := runJudged(cfg, bc, rec, run)
	if err != nil {
		return nil, err
	}
	if !alwaysLog && v != bare {
		return nil, fmt.Errorf("explore: %s/%s seed %d, strategy %s seed %d: recording re-run judged %s, the bare run %s",
			cfg.Structure, cfg.Scheme, cfg.Seed, cfg.Strategy, cfg.StratSeed, v, bare)
	}
	log := &Log{Config: cfg, Decisions: rec.Decisions()}
	if v.Failed {
		log.Oracle = v.Oracle
	}
	return &Outcome{Config: cfg, Verdict: v, Log: log, Result: res, Steps: rec.Steps()}, nil
}

// Record runs cfg under its named strategy and returns the judged
// outcome. Only a failing run carries a replayable log: passing runs skip
// the log entirely (see record).
func Record(cfg RunConfig) (*Outcome, error) {
	cfg = cfg.WithDefaults()
	return record(cfg, cfg.benchConfig(), bench.Run, 0, false)
}

// RecordTraced is Record with an event trace attached to the run: ring
// mode, so the tail (where failures live) survives any length of run. It
// is the diagnostic path, so it records the schedule of every run,
// passing or not.
func RecordTraced(cfg RunConfig, events int) (*Outcome, *trace.Recorder, error) {
	cfg = cfg.WithDefaults()
	bc := cfg.benchConfig()
	bc.TraceEvents = events
	bc.RingTrace = true
	out, err := record(cfg, bc, bench.Run, 0, true)
	if err != nil {
		return nil, nil, err
	}
	if out.Result == nil {
		return out, nil, nil
	}
	return out, out.Result.Trace, nil
}

// ReplayLog re-drives the simulation from a schedule log and judges it.
// events > 0 additionally records a ring trace of that many events.
func ReplayLog(log *Log, events int) (*Outcome, *trace.Recorder, error) {
	cfg := log.Config.WithDefaults()
	rp := NewReplay(log.Decisions)
	bc := cfg.benchConfig()
	if events > 0 {
		bc.TraceEvents = events
		bc.RingTrace = true
	}
	res, v, err := runJudged(cfg, bc, rp, bench.Run)
	if err != nil {
		return nil, nil, err
	}
	out := &Outcome{Config: cfg, Verdict: v, Result: res, Applied: rp.Applied()}
	if res == nil {
		return out, nil, nil
	}
	return out, res.Trace, nil
}
