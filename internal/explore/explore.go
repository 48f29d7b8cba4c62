// Package explore is the schedule-exploration subsystem: it turns the
// deterministic scheduler (internal/sched) into a systematic concurrency
// testing engine for the memory-reclamation schemes.
//
// Four pieces compose:
//
//   - Strategies: pluggable sched.Policy implementations that decide which
//     thread runs and when preemptions strike. Besides the scheduler's own
//     virtual-time rule there is a uniform random walk and a PCT-style
//     priority strategy (Burckhardt et al., ASPLOS 2010) with configurable
//     depth d: random thread priorities plus d−1 priority-change points,
//     which reaches rare d-deep interleavings with provable probability
//     where uniform random scheduling mostly revisits shallow ones.
//
//   - Schedule logs: a recorded run produces a compact artifact — the
//     run configuration, the strategy and its seed, and the sequence of
//     scheduling decisions that *deviated* from the built-in rule. Because
//     the simulation is deterministic, replaying the log reproduces the
//     execution bit for bit (asserted by comparing full trace streams).
//     The same determinism lets exploration run its strategies bare and
//     record only a failing run, by running it again.
//
//   - Oracles: each run is judged for poison (use-after-free) reads, key
//     conservation, allocator-level crashes (double free, wild pointer),
//     and per-key linearizability via internal/bench's checker.
//
//   - Minimization: ddmin (Zeller's delta debugging) shrinks a failing
//     log's decision list — re-running the deterministic simulation as the
//     oracle — to a 1-minimal set of scheduling deviations, then renders
//     the surviving interleaving as a human-readable narrative.
//
// Exploration across seeds is embarrassingly parallel (each simulation is
// an independent single-goroutine world), so the Explore driver fans out
// over real host goroutines with a shared stop-on-first-failure budget.
// cmd/stfuzz is the command-line front end.
package explore

import (
	"fmt"
	"strings"

	"stacktrack/internal/bench"
	"stacktrack/internal/cost"
	"stacktrack/internal/mem"
	"stacktrack/internal/reclaim"
	"stacktrack/internal/sched"
)

// Strategy names accepted by RunConfig.Strategy.
const (
	StrategyVTime  = "vtime"  // the scheduler's own virtual-time + quantum rule
	StrategyRandom = "random" // uniform random walk with random preemptions
	StrategyPCT    = "pct"    // priority-based concurrency testing, depth d
)

// RunConfig describes one exploration run: the workload (a subset of
// bench.Config) plus the scheduling strategy driving it. It is embedded in
// every schedule log, making the artifact self-contained.
type RunConfig struct {
	Structure string `json:"structure"`
	Scheme    string `json:"scheme"`
	Threads   int    `json:"threads"`
	Seed      uint64 `json:"seed"`

	InitialSize  int    `json:"initial_size,omitempty"`
	KeyRange     uint64 `json:"key_range,omitempty"`
	MutatePct    int    `json:"mutate_pct,omitempty"`
	Buckets      int    `json:"buckets,omitempty"`
	QueuePrefill int    `json:"queue_prefill,omitempty"`

	WarmupCycles  cost.Cycles `json:"warmup_cycles,omitempty"`
	MeasureCycles cost.Cycles `json:"measure_cycles,omitempty"`
	MemWords      int         `json:"mem_words,omitempty"`
	CrashThreads  int         `json:"crash_threads,omitempty"`

	// Strategy selects the scheduling strategy; StratSeed seeds its RNG
	// (0 derives one from Seed so each workload seed explores a fresh
	// schedule).
	Strategy  string `json:"strategy"`
	StratSeed uint64 `json:"strat_seed,omitempty"`

	// Depth is PCT's d: the number of priority-change points plus one.
	Depth int `json:"depth,omitempty"`
	// PreemptProb is the random walk's per-decision forced-preemption
	// probability.
	PreemptProb float64 `json:"preempt_prob,omitempty"`

	// CheckLin enables the per-key linearizability oracle (set structures,
	// crash-free runs only — a crashed thread's in-flight op would make
	// completed-only checking unsound).
	CheckLin bool `json:"check_lin,omitempty"`

	// CheckRaces enables the dynamic sanitizer (internal/sanitize) on the
	// run and the race oracle over its report: a data race or a
	// shadow-detected bad access fails the schedule. Off by default — the
	// sanitizer never changes simulated results, but race-failing
	// schedules only minimize stably when the field is recorded in the
	// schedule artifact, so it is part of RunConfig rather than a
	// side-channel flag.
	CheckRaces bool `json:"check_races,omitempty"`

	// CheckEffects enables the dynamic effect-soundness oracle: every
	// executed block's register and frame accesses are checked against the
	// operation's declared Reads/Writes/LoadsPtr/Kills sets — the
	// annotations the static dataflow pass (and through it the scanner's
	// elision masks) trusts. Any violation fails the schedule. Recorded in
	// the artifact for the same replay-stability reason as CheckRaces.
	CheckEffects bool `json:"check_effects,omitempty"`
}

// WithDefaults fills unset fields with small fuzzing-friendly parameters:
// unlike the paper-benchmark defaults, exploration wants tiny structures,
// short horizons, and heavy mutation to maximize reclamation pressure per
// wall-clock second.
func (c RunConfig) WithDefaults() RunConfig {
	if c.Structure == "" {
		c.Structure = bench.StructList
	}
	if c.Scheme == "" {
		c.Scheme = bench.SchemeStackTrack
	}
	// The harness matches the paper's scheme by exact name; accept the
	// lowercase spelling the CLI favors (reclaim.NewScheme already accepts
	// short aliases for every other scheme).
	if strings.EqualFold(c.Scheme, bench.SchemeStackTrack) {
		c.Scheme = bench.SchemeStackTrack
	}
	if c.Threads <= 0 {
		c.Threads = 7
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.InitialSize <= 0 {
		c.InitialSize = 48
	}
	if c.KeyRange == 0 {
		c.KeyRange = 2 * uint64(c.InitialSize)
	}
	if c.MutatePct == 0 {
		c.MutatePct = 60
	}
	if c.Buckets == 0 {
		c.Buckets = 16
	}
	if c.QueuePrefill == 0 {
		c.QueuePrefill = 32
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = cost.FromSeconds(0.0002)
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = cost.FromSeconds(0.002)
	}
	if c.MemWords == 0 {
		c.MemWords = 1 << 20
	}
	if c.Strategy == "" {
		c.Strategy = StrategyRandom
	}
	if c.StratSeed == 0 {
		// Decorrelate from the workload seed but stay deterministic.
		c.StratSeed = c.Seed*0x9E3779B97F4A7C15 + 0x5EED
	}
	if c.Depth <= 0 {
		c.Depth = 3
	}
	if c.PreemptProb == 0 {
		c.PreemptProb = 0.02
	}
	return c
}

// benchConfig translates the exploration config into the harness's.
func (c RunConfig) benchConfig() bench.Config {
	return bench.Config{
		Structure:     c.Structure,
		Scheme:        c.Scheme,
		Threads:       c.Threads,
		Seed:          c.Seed,
		InitialSize:   c.InitialSize,
		KeyRange:      c.KeyRange,
		MutatePct:     c.MutatePct,
		Buckets:       c.Buckets,
		QueuePrefill:  c.QueuePrefill,
		WarmupCycles:  c.WarmupCycles,
		MeasureCycles: c.MeasureCycles,
		MemWords:      c.MemWords,
		CrashThreads:  c.CrashThreads,
		Validate:      true,
		History:       c.CheckLin && c.CrashThreads == 0,
		Sanitize:      c.CheckRaces,
		CheckEffects:  c.CheckEffects,
	}
}

// Limits validate enforces beyond what the harness itself checks: each
// bounds an allocation a loaded schedule artifact would otherwise size.
const (
	maxDepth    = 1 << 10 // PCT keeps depth-1 change points
	maxMemWords = 1 << 28 // 2 GiB of simulated memory
)

// validate reports, without building the machine, whether the defaulted
// configuration names a known strategy, structure and scheme and whether
// its sizes are ones the harness can run: a schedule artifact loaded from
// disk must fail here, not panic inside the simulator.
func (c RunConfig) validate() error {
	c = c.WithDefaults()
	switch c.Structure {
	case bench.StructList, bench.StructHash, bench.StructSkipList, bench.StructQueue, bench.StructRBTree:
	default:
		return fmt.Errorf("explore: unknown structure %q", c.Structure)
	}
	if c.Scheme != bench.SchemeStackTrack && !reclaim.Known(c.Scheme) {
		return fmt.Errorf("explore: unknown scheme %q", c.Scheme)
	}
	switch {
	case c.Threads > mem.MaxThreads:
		return fmt.Errorf("explore: %d threads exceeds the %d-thread limit", c.Threads, mem.MaxThreads)
	case c.CrashThreads < 0 || c.CrashThreads > c.Threads:
		return fmt.Errorf("explore: %d crash threads outside [0, %d]", c.CrashThreads, c.Threads)
	case uint64(c.InitialSize) > c.KeyRange:
		return fmt.Errorf("explore: initial size %d exceeds the key range %d", c.InitialSize, c.KeyRange)
	case c.MutatePct < 0 || c.MutatePct > 100:
		return fmt.Errorf("explore: mutate percentage %d outside [0, 100]", c.MutatePct)
	case c.Buckets < 0 || c.QueuePrefill < 0:
		return fmt.Errorf("explore: negative bucket count %d or queue prefill %d", c.Buckets, c.QueuePrefill)
	case c.MemWords < 0 || c.MemWords > maxMemWords:
		return fmt.Errorf("explore: %d memory words outside [0, %d]", c.MemWords, maxMemWords)
	case c.Depth > maxDepth:
		return fmt.Errorf("explore: PCT depth %d exceeds %d", c.Depth, maxDepth)
	case !(c.PreemptProb >= 0 && c.PreemptProb <= 1):
		return fmt.Errorf("explore: preemption probability %v outside [0, 1]", c.PreemptProb)
	}
	_, err := NewStrategy(c)
	return err
}

// NewStrategy constructs the named strategy seeded with seed. The vtime
// strategy is stateless; random and pct take their randomness from seed
// only, so a (strategy, seed) pair is a complete schedule description.
func NewStrategy(cfg RunConfig) (sched.Policy, error) {
	cfg = cfg.WithDefaults()
	switch cfg.Strategy {
	case StrategyVTime:
		return VTime{}, nil
	case StrategyRandom:
		return NewRandomWalk(cfg.StratSeed, cfg.PreemptProb), nil
	case StrategyPCT:
		return NewPCT(cfg.StratSeed, cfg.Depth, pctDefaultSteps), nil
	default:
		return nil, fmt.Errorf("explore: unknown strategy %q", cfg.Strategy)
	}
}
