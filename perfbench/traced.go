package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"stacktrack/internal/bench"
	"stacktrack/internal/explore"
	"stacktrack/internal/metrics"
	"stacktrack/internal/sched"
)

// traceTotals accumulates the traced run over all its units.
type traceTotals struct {
	tr       *tracer
	units    []string
	passes   int
	counters map[string]uint64 // measurement-window counters, summed

	windowDec, decisions, allOps uint64
	memNewNs, dsSeedNs, schemeNs int64
	allocs, frees, leaked        uint64
	tracedNs, plainNs            int64 // whole-unit host time, traced vs untraced
	probes                       map[string][]float64
	gcForced                     uint32
}

// runTraced repeats traced passes until the budget is spent, then runs
// one CPU-profiled pass, and reports the per-layer metrics.
func runTraced(w workloadSpec, seed uint64, budget time.Duration, r *refs, t *tally, outDir string) ([]metric, error) {
	tt := &traceTotals{tr: newTracer(), counters: map[string]uint64{}, probes: map[string][]float64{}}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	units := w.units(seed)
	for tt.passes == 0 || time.Since(start) < budget {
		tt.passes++
		for _, u := range units {
			tt.tr.unit = int32(len(tt.units))
			tt.units = append(tt.units, u.name)
			t.check(u, tt.traceUnit(u, r))
		}
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	gcCycles := ms1.NumGC - ms0.NumGC - tt.gcForced

	if err := tt.tr.dump(filepath.Join(outDir, "spans-"+w.name+".jsonl"), tt.units); err != nil {
		return nil, err
	}
	shares, err := profilePass(w, seed, r, t)
	if err != nil {
		return nil, err
	}
	cost := calibrate()
	ms := tt.metrics(gcCycles, shares, cost)
	tt.crossCheck(shares, cost)
	return ms, nil
}

// traceUnit runs u untraced through the program's own front end (checking
// its output), then assembles and runs it traced, and requires the two
// runs to agree on every simulated counter and the op count. Probes run on
// the traced machine afterwards.
func (tt *traceTotals) traceUnit(u unit, r *refs) error {
	settle(u.cfg.MemWords)
	tt.gcForced++
	var (
		refOps   uint64
		refSnap  metrics.Snapshot
		refSteps uint64
		policy   sched.Policy
	)
	t0 := time.Now()
	if u.fuzz != nil {
		out, err := explore.Record(*u.fuzz)
		tt.plainNs += time.Since(t0).Nanoseconds()
		if err != nil {
			return err
		}
		if err := r.checkFuzz(u, out); err != nil {
			return err
		}
		refOps, refSnap, refSteps = out.Result.Ops, out.Result.Metrics, out.Steps
		strat, err := explore.NewStrategy(*u.fuzz)
		if err != nil {
			return err
		}
		policy = explore.NewRecording(strat)
	} else {
		res, err := bench.Run(u.cfg)
		tt.plainNs += time.Since(t0).Nanoseconds()
		if err != nil {
			return err
		}
		if err := r.checkPoint(u, res); err != nil {
			return err
		}
		refOps, refSnap = res.Ops, res.Metrics
		if u.cfg.Scheme != bench.SchemeOriginal {
			tt.leaked += res.LeakedObjects
		}
	}

	settle(u.cfg.MemWords)
	tt.gcForced++
	t0 = time.Now()
	mc, err := newMachine(u.cfg, policy, tt.tr)
	if err != nil {
		return err
	}
	out := mc.run()
	tt.tracedNs += time.Since(t0).Nanoseconds()
	defer mc.m.Release()

	// Fidelity guard: the traced assembly simulated the same machine.
	if out.ops != refOps {
		return fmt.Errorf("traced assembly completed %d ops, untraced run %d", out.ops, refOps)
	}
	got, err := json.Marshal(out.snap)
	if err != nil {
		return err
	}
	want, err := json.Marshal(refSnap)
	if err != nil {
		return err
	}
	if string(got) != string(want) {
		return fmt.Errorf("traced assembly's metric snapshot differs from the untraced run's")
	}
	if u.fuzz != nil && out.decisions != refSteps {
		return fmt.Errorf("traced assembly made %d decisions, untraced run %d", out.decisions, refSteps)
	}

	for name, v := range out.snap.Counters {
		tt.counters[name] += v
	}
	tt.windowDec += out.windowDec
	tt.decisions += out.decisions
	tt.allOps += out.allOps
	tt.memNewNs += mc.memNewNs
	tt.dsSeedNs += mc.dsSeedNs
	tt.schemeNs += mc.schemeNs
	s := mc.al.Stats()
	tt.allocs += s.Allocs - mc.allocsAtStart
	tt.frees += s.Frees - mc.freesAtStart
	for name, v := range probe(mc) {
		tt.probes[name] = append(tt.probes[name], v)
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics returns the per-layer metrics, in BENCHMARK.json's order.
// Span times are net of the tracer's own cost (see calibrate); the
// policy, workload and reclaim spans have no children, so their self
// time is their whole time.
func (tt *traceTotals) metrics(gcCycles uint32, shares map[string]float64, cost spanCost) []metric {
	tr := tt.tr
	self := func(k int) float64 { return tr.selfNs(k, cost) }
	c := func(name string) float64 { return float64(tt.counters[name]) }
	perPass := func(v float64) float64 { return v / float64(tt.passes) }
	f := func(v int64) float64 { return float64(v) }
	probe := func(name string) float64 { return median(tt.probes[name]) }
	dec := float64(tt.decisions)
	ms := []metric{
		{"sched.self_ns_per_decision", "ns", ratio(self(spRun), dec)},
		{"sched.policy_ns_per_decision", "ns", ratio(self(spPolicy), dec)},
		{"sched.repeat_pick_frac", "fraction", ratio(f(tr.repeats), f(tr.calls[spStep]))},
		{"sched.preemptions", "count", perPass(c("sched.preemptions"))},
		{"sched.context_switches", "count", perPass(c("sched.context_switches"))},
		{"sched.frame_local_ns", "ns", probe("sched.frame_local_ns")},
		{"prog.dispatch_self_ns_per_step", "ns", ratio(self(spStep), f(tr.calls[spStep]))},
		{"prog.runner_self_ns_per_step", "ns", ratio(self(spPlainRunner), f(tr.steps[spPlainRunner]))},
		{"prog.steps_per_op", "steps", ratio(f(tr.calls[spStep]), float64(tt.allOps))},
		{"workload.next_ns_per_op", "ns", ratio(self(spNext), f(tr.calls[spNext]))},
		{"core.runner_self_ns_per_step", "ns", ratio(self(spCoreRunner), f(tr.steps[spCoreRunner]))},
		{"core.commit_frac", "fraction", ratio(c("mem.commits"), c("mem.tx_begins"))},
		{"core.blocks_per_segment", "blocks", ratio(c("core.segment_blocks"), c("core.segments"))},
		{"core.scans", "count", perPass(c("core.scans"))},
		{"core.scanned_words", "count", perPass(c("core.scanned_words"))},
		{"core.elided_frac", "fraction", ratio(c("core.elided_words"), c("core.elided_words")+c("core.scanned_words"))},
		{"core.ops_slow_frac", "fraction", ratio(c("core.ops_slow"), c("core.ops_fast")+c("core.ops_slow"))},
		{"reclaim.ns_per_call", "ns", ratio(self(spReclaim), f(tr.calls[spReclaim]))},
		{"reclaim.calls_per_op", "calls", ratio(f(tr.calls[spReclaim]), float64(tt.allOps))},
		{"reclaim.leaked_objects", "count", perPass(float64(tt.leaked))},
		{"mem.plain_per_decision", "accesses", ratio(c("mem.plain_reads")+c("mem.plain_writes"), float64(tt.windowDec))},
		{"mem.tx_per_decision", "accesses", ratio(c("mem.tx_reads")+c("mem.tx_writes"), float64(tt.windowDec))},
		{"mem.aborts_capacity", "count", perPass(c("mem.aborts_capacity"))},
		{"mem.aborts_conflict", "count", perPass(c("mem.aborts_conflict"))},
		{"mem.coherence_misses", "count", perPass(c("mem.coherence_misses"))},
		{"mem.read_plain_ns", "ns", probe("mem.read_plain_ns")},
		{"mem.write_plain_ns", "ns", probe("mem.write_plain_ns")},
		{"mem.tx_read_ns", "ns", probe("mem.tx_read_ns")},
		{"mem.tx_write_ns", "ns", probe("mem.tx_write_ns")},
		{"mem.tx_commit_ns", "ns", probe("mem.tx_commit_ns")},
		{"alloc.alloc_free_ns", "ns", probe("alloc.alloc_free_ns")},
		{"alloc.allocs", "count", perPass(float64(tt.allocs))},
		{"alloc.frees", "count", perPass(float64(tt.frees))},
		{"metrics.counter_inc_ns", "ns", probe("metrics.counter_inc_ns")},
		{"mem.new_ms", "ms", perPass(f(tt.memNewNs)) / 1e6},
		{"ds.seed_ms", "ms", perPass(f(tt.dsSeedNs)) / 1e6},
		{"scheme.attach_ms", "ms", perPass(f(tt.schemeNs)) / 1e6},
		{"go.gc_cycles", "count", perPass(float64(gcCycles))},
		{"trace.overhead_frac", "fraction", ratio(f(tt.tracedNs), f(tt.plainNs)) - 1},
	}
	for _, p := range sharePackages {
		ms = append(ms, metric{"host_share." + p, "fraction", shares[p]})
	}
	return ms
}

// crossCheck prints the profiled package shares beside the traced self
// times, each as a share of all traced self time. The two attribute
// differently: a runner's self time contains the block bodies it runs
// (ds, mem, metrics, alloc), which the profile assigns to those packages.
func (tt *traceTotals) crossCheck(shares map[string]float64, cost spanCost) {
	tr := tt.tr
	var total float64
	for k := range nSpanKinds {
		total += tr.selfNs(k, cost)
	}
	fmt.Fprintf(os.Stderr, "trace_overhead_frac %.3f (traced %.2fs vs untraced %.2fs, %d units, fidelity guard on every unit)\n",
		ratio(float64(tt.tracedNs), float64(tt.plainNs))-1, float64(tt.tracedNs)/1e9, float64(tt.plainNs)/1e9, len(tt.units))
	fmt.Fprintf(os.Stderr, "span cost %.1f ns inside, %.1f ns in the parent (subtracted below)\n", cost.inSpan, cost.inParent)
	fmt.Fprintf(os.Stderr, "%-20s %10s   %-10s %10s\n", "traced span", "self", "package", "profile")
	kinds := []int{spRun, spStep, spPolicy, spNext, spDone, spCoreRunner, spPlainRunner, spReclaim}
	pkgs := append([]string(nil), sharePackages...)
	sort.SliceStable(pkgs, func(i, j int) bool { return shares[pkgs[i]] > shares[pkgs[j]] })
	for i := 0; i < len(kinds) || i < len(pkgs); i++ {
		left, right := "", ""
		if i < len(kinds) {
			left = fmt.Sprintf("%-20s %9.1f%%", spanNames[kinds[i]], 100*ratio(tr.selfNs(kinds[i], cost), total))
		}
		if i < len(pkgs) {
			right = fmt.Sprintf("%-10s %9.1f%%", pkgs[i], 100*shares[pkgs[i]])
		}
		fmt.Fprintf(os.Stderr, "%-31s   %s\n", left, right)
	}
}
