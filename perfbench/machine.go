package main

import (
	"fmt"
	"time"

	"stacktrack/internal/alloc"
	"stacktrack/internal/bench"
	"stacktrack/internal/core"
	"stacktrack/internal/cost"
	"stacktrack/internal/ds"
	"stacktrack/internal/mem"
	"stacktrack/internal/metrics"
	"stacktrack/internal/prog"
	"stacktrack/internal/prog/dataflow"
	"stacktrack/internal/reclaim"
	"stacktrack/internal/rng"
	"stacktrack/internal/sched"
	"stacktrack/internal/workload"
)

// machine is one simulated run assembled from the layers' public
// constructors the way bench's harness assembles it, with every seam
// between layers wrapped in spans. The fidelity guard compares its
// simulated output with the untraced harness run of the same unit.
type machine struct {
	cfg     bench.Config
	tr      *tracer
	reg     *metrics.Registry
	m       *mem.Memory
	al      *alloc.Allocator
	sc      *sched.Scheduler
	scheme  reclaimerSpan
	threads []*sched.Thread

	stopping bool
	succOps  uint64

	// Set-up split, host nanoseconds.
	memNewNs, dsSeedNs, schemeNs int64
	allocsAtStart, freesAtStart  uint64
}

// runOut is what a traced run produced.
type runOut struct {
	ops       uint64 // operations completed in the measurement window
	snap      metrics.Snapshot
	windowDec uint64 // decisions in the measurement window
	decisions uint64 // decisions of the whole run, drain included
	allOps    uint64 // operations completed in the whole run
}

// newMachine assembles cfg (defaulted) under policy (nil for the
// scheduler's own rule).
func newMachine(cfg bench.Config, policy sched.Policy, tr *tracer) (*machine, error) {
	if cfg.CrashThreads != 0 || cfg.KeyDist != bench.KeyDistUniform {
		return nil, fmt.Errorf("traced assembly supports crash-free uniform-key runs only")
	}
	mc := &machine{cfg: cfg, tr: tr, reg: metrics.NewRegistry()}
	t0 := time.Now()
	mc.m = mem.New(mem.Config{Words: cfg.MemWords, Topology: cfg.Topology, Metrics: mc.reg})
	mc.memNewNs = time.Since(t0).Nanoseconds()
	mc.al = alloc.New(mc.m)
	mc.sc = sched.NewScheduler(mc.m, cfg.Topology, cfg.Seed)
	if policy != nil {
		mc.sc.SetPolicy(policySpan{tr, policy})
	}

	// Threads first: their stacks and register files are static regions.
	seedStream := cfg.Seed
	for i := 0; i < cfg.Threads; i++ {
		t := sched.NewThread(i, mc.m, mc.al, rng.Splitmix64(&seedStream))
		t.Validate = cfg.Validate
		mc.threads = append(mc.threads, t)
	}

	t0 = time.Now()
	var st *core.StackTrack
	var inner sched.Reclaimer
	if cfg.Scheme == bench.SchemeStackTrack {
		st = core.New(mc.sc, mc.al, cfg.Core)
		inner = st
	} else {
		s, err := reclaim.NewScheme(cfg.Scheme, mc.sc, mc.al)
		if err != nil {
			return nil, err
		}
		inner = s
	}
	mc.scheme = reclaimerSpan{tr, inner}
	for _, t := range mc.threads {
		t.Scheme = mc.scheme
		mc.scheme.Attach(t)
	}
	mc.schemeNs = time.Since(t0).Nanoseconds()

	t0 = time.Now()
	ops, nextOp, err := buildStructure(cfg, mc.al, mc.m)
	if err != nil {
		return nil, err
	}
	mc.dsSeedNs = time.Since(t0).Nanoseconds()

	if st != nil && !cfg.NoScanElide {
		masks := make(map[int]dataflow.TrackMask, len(ops))
		for _, op := range ops {
			if f := dataflow.Analyze(op); f.Complete {
				masks[op.ID] = f.Mask
			}
		}
		st.SetMasks(masks)
	}

	hist := mc.reg.Histogram("ops.op_cycles", metrics.TimeHistBuckets)
	next := func(t *sched.Thread) (*prog.Op, [3]uint64, bool) {
		tr.begin(spNext)
		defer tr.end()
		if mc.stopping {
			return nil, [3]uint64{}, false
		}
		op, args := nextOp(t)
		return op, args, true
	}
	// The harness's OnDone classifies outcomes in unexported state; the
	// assembly's counts successes, work of the same kind.
	onDone := func(_ *sched.Thread, _ *prog.Op, result uint64) {
		tr.begin(spDone)
		defer tr.end()
		if result != 0 {
			mc.succOps++
		}
	}
	for _, t := range mc.threads {
		r := runnerSpan{tr: tr, kind: spPlainRunner, inner: &prog.PlainRunner{Hist: hist}}
		if st != nil {
			r = runnerSpan{tr: tr, kind: spCoreRunner, inner: core.NewRunner(st)}
		}
		d := &prog.Driver{Runner: r, Next: next, OnDone: onDone}
		mc.sc.AddThread(t, stepperSpan{tr, d})
	}
	s := mc.al.Stats()
	mc.allocsAtStart, mc.freesAtStart = s.Allocs, s.Frees
	return mc, nil
}

// buildStructure creates and prefills the structure and returns its
// operations and the per-thread operation source, as the harness does.
func buildStructure(cfg bench.Config, al *alloc.Allocator, m *mem.Memory) ([]*prog.Op, func(*sched.Thread) (*prog.Op, [3]uint64), error) {
	keys := func() []uint64 { return workload.SampleKeys(cfg.Seed+1, cfg.InitialSize, cfg.KeyRange) }
	set := func(contains, insert, del *prog.Op) ([]*prog.Op, func(*sched.Thread) (*prog.Op, [3]uint64), error) {
		mix := workload.SetMix{KeyRange: cfg.KeyRange, MutatePct: cfg.MutatePct}
		return []*prog.Op{contains, insert, del}, func(t *sched.Thread) (*prog.Op, [3]uint64) {
			kind, key := mix.Next(t.Rng)
			switch kind {
			case workload.SetInsert:
				return insert, [3]uint64{key, key + 1}
			case workload.SetDelete:
				return del, [3]uint64{key}
			default:
				return contains, [3]uint64{key}
			}
		}, nil
	}
	switch cfg.Structure {
	case bench.StructList:
		l := ds.NewList(al)
		l.Seed(al, m, keys(), 7)
		return set(l.OpContains, l.OpInsert, l.OpDelete)
	case bench.StructHash:
		h := ds.NewHashTable(al, cfg.Buckets)
		h.Seed(al, m, keys(), 7)
		return set(h.OpContains, h.OpInsert, h.OpDelete)
	case bench.StructSkipList:
		s := ds.NewSkipList(al)
		s.Seed(al, m, keys(), 7, cfg.Seed+2)
		return set(s.OpContains, s.OpInsert, s.OpDelete)
	case bench.StructQueue:
		q := ds.NewQueue(al)
		vals := make([]uint64, cfg.QueuePrefill)
		for i := range vals {
			vals[i] = uint64(i) + 1
		}
		q.Seed(al, m, vals)
		mix := workload.QueueMix{MutatePct: cfg.MutatePct, ValRange: 1 << 20}
		return []*prog.Op{q.OpEnqueue, q.OpDequeue, q.OpPeek}, func(t *sched.Thread) (*prog.Op, [3]uint64) {
			kind, val := mix.Next(t.Rng)
			switch kind {
			case workload.QueueEnqueue:
				return q.OpEnqueue, [3]uint64{val}
			case workload.QueueDequeue:
				return q.OpDequeue, [3]uint64{}
			default:
				return q.OpPeek, [3]uint64{}
			}
		}, nil
	}
	return nil, nil, fmt.Errorf("traced assembly does not build structure %q", cfg.Structure)
}

// run drives the harness's phases: warmup, measurement (metrics reset at
// its start and snapshotted at its end), then the drain.
func (mc *machine) run() runOut {
	cfg := mc.cfg
	runTo := func(h cost.Cycles) {
		mc.tr.begin(spRun)
		defer mc.tr.end()
		mc.sc.Run(h)
	}
	opsDone := func() uint64 {
		var n uint64
		for _, t := range mc.threads {
			n += t.OpsDone
		}
		return n
	}
	runTo(cfg.WarmupCycles)
	mc.reg.Reset()
	ops0, dec0 := opsDone(), mc.sc.Decisions()
	runTo(cfg.WarmupCycles + cfg.MeasureCycles)
	out := runOut{ops: opsDone() - ops0, snap: mc.reg.Snapshot(), windowDec: mc.sc.Decisions() - dec0}
	mc.stopping = true
	runTo(cfg.WarmupCycles + cfg.MeasureCycles + cost.FromSeconds(1.0))
	for range 4 {
		for _, t := range mc.threads {
			mc.scheme.Drain(t)
		}
	}
	out.decisions = mc.sc.Decisions()
	out.allOps = opsDone()
	return out
}
