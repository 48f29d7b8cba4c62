package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"

	"stacktrack/internal/bench"
	"stacktrack/internal/explore"
	"stacktrack/internal/mem"
)

// chunkDecisions is the fixed decision count of one timed chunk of a
// sweep point (the grain bench.RunContext polls at).
const chunkDecisions = 1 << 15

// pass holds one pass's end-to-end measurements.
type pass struct {
	decisions uint64
	runNs     int64  // host CPU time after set-up
	setupNs   int64  // set-up time summed over the pass's units
	allocB    uint64 // Go heap allocated by the pass's units
}

// e2e accumulates the end-to-end host measurements of one workload.
type e2e struct {
	passes    []pass
	samples   []float64 // ns per decision, per chunk or per fuzz run
	profiling bool      // label measured sections for profilePass
}

func (e *e2e) cur() *pass { return &e.passes[len(e.passes)-1] }

func (e *e2e) startPass() { e.passes = append(e.passes, pass{}) }

// keepPooled leaves one released memory of the given size in mem's pool,
// the state a sweep of bench.Run points is in before each point. A
// bench.Session never releases its memory, so without this every set-up
// after the first would allocate fresh backing arrays.
func keepPooled(words int) {
	mem.New(mem.Config{Words: words}).Release()
}

// settle puts the host in the same state before every unit: the
// previous unit's garbage collected and returned to the OS, then pooled
// memory available.
func settle(words int) {
	debug.FreeOSMemory()
	keepPooled(words)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runPoint times one sweep point through a bench.Session: set-up, then
// fixed-size decision chunks, then the drain.
func (e *e2e) runPoint(u unit) (res *bench.Result, err error) {
	p := e.cur()
	settle(u.cfg.MemWords)
	a0 := totalAlloc()
	e.measured(func() {
		t0 := cpuNs()
		var s *bench.Session
		if s, err = bench.NewSession(u.cfg); err != nil {
			return
		}
		p.setupNs += cpuNs() - t0
		for {
			c0 := cpuNs()
			full := s.RunToDecision(s.Decisions() + chunkDecisions)
			dt := cpuNs() - c0
			p.runNs += dt
			if !full {
				break
			}
			e.samples = append(e.samples, float64(dt)/chunkDecisions)
		}
		t1 := cpuNs()
		res, err = s.Finish()
		p.runNs += cpuNs() - t1
		p.decisions += s.Decisions()
	})
	p.allocB += totalAlloc() - a0
	return res, err
}

// runFuzz times one explore.Record run. Record assembles its machine
// internally, so the set-up share is measured beside it with
// bench.NewSession on the same configuration.
func (e *e2e) runFuzz(u unit) (out *explore.Outcome, err error) {
	p := e.cur()
	settle(u.cfg.MemWords)
	a0 := totalAlloc()
	var setup int64
	e.measured(func() {
		t0 := cpuNs()
		_, err = bench.NewSession(u.cfg)
		setup = cpuNs() - t0
	})
	if err != nil {
		return nil, err
	}
	p.allocB += totalAlloc() - a0

	keepPooled(u.cfg.MemWords)
	a1 := totalAlloc()
	var run int64
	e.measured(func() {
		t1 := cpuNs()
		out, err = explore.Record(*u.fuzz)
		run = cpuNs() - t1
	})
	if err != nil {
		return nil, err
	}
	if out.Steps == 0 {
		return nil, fmt.Errorf("run made no scheduling decisions")
	}
	p.runNs += run - setup
	p.decisions += out.Steps
	p.setupNs += setup
	p.allocB += totalAlloc() - a1
	e.samples = append(e.samples, float64(run)/float64(out.Steps))
	return out, nil
}

// measured runs f, the measured part of a unit; under the CPU profiler
// it carries the pprof label the share computation selects on.
func (e *e2e) measured(f func()) {
	if !e.profiling {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels(measuredLabel, "1"), func(context.Context) { f() })
}

// metrics returns the end-to-end metrics, in BENCHMARK.json's order.
func (e *e2e) metrics(peakRSSMB float64) []metric {
	var dps, setups, allocs []float64
	for _, p := range e.passes {
		dps = append(dps, float64(p.decisions)*1e9/float64(p.runNs))
		setups = append(setups, float64(p.setupNs)/1e9)
		allocs = append(allocs, float64(p.allocB)/(1<<20))
	}
	fmt.Fprintf(os.Stderr, "per pass: decisions_per_s %.4g, setup_s %.4g\n", dps, setups)
	return []metric{
		{"decisions_per_s", "1/s", median(dps)},
		{"ns_per_decision_p50", "ns", quantile(e.samples, 0.5)},
		{"ns_per_decision_p90", "ns", quantile(e.samples, 0.9)},
		{"setup_s", "s", median(setups)},
		{"alloc_mb", "MB", median(allocs)},
		{"peak_rss_mb", "MB", peakRSSMB},
	}
}
