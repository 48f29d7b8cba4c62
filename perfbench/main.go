// Command perfbench measures the host speed of the stacktrack simulator:
// how fast the Go program runs the simulated machine, not what the
// machine computes. Simulated results are deterministic and are checked
// for byte-identity against committed references; host numbers are
// measurements of this process on its host and carry no accuracy figure.
//
// Usage (from the repository root, through perfbench/run.sh):
//
//	perfbench -workload paper-st|paper-smr|fuzz -seed N -seconds S -trace 0|1
//
// Every run first checks one untimed unit against the committed
// reference (which also fills mem's pool), then repeats whole passes over
// the workload's units until S seconds have been measured. With -trace 0
// it reports end-to-end metrics measured with no instrumentation. With
// -trace 1 it rebuilds each unit's machine from the layers' public
// constructors, wraps the seams between layers in timed spans, and
// reports per-layer metrics, followed by a CPU-profile pass. The last
// line of standard output is one JSON object; everything else goes to
// standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"stacktrack/internal/bench"
	"stacktrack/internal/explore"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// tally counts checked units and reports each failure with its unit.
type tally struct {
	attempted, failed int
}

func (t *tally) check(u unit, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", u.name, err)
	}
}

// workloadSpec is one benchmark workload: its unit passes and how a unit runs.
type workloadSpec struct {
	name string
	// units returns one pass's units.
	units func(seed uint64) []unit
	// warmup is the untimed unit checked first in every process; it is
	// always at the default seed, so every run checks byte-identity.
	warmup unit
}

func workloads() map[string]workloadSpec {
	st := func(seed uint64) []unit { return paperUnits(false, seed) }
	smr := func(seed uint64) []unit { return paperUnits(true, seed) }
	return map[string]workloadSpec{
		"paper-st":  {"paper-st", st, paperUnits(false, 0)[0]},
		"paper-smr": {"paper-smr", smr, paperUnits(true, 0)[1]},
		"fuzz":      {"fuzz", fuzzUnits, fuzzUnits(0)[0]},
	}
}

func main() {
	var (
		name     = flag.String("workload", "", "paper-st | paper-smr | fuzz")
		seed     = flag.Uint64("seed", 0, "workload seed (0 = the committed baselines' seed)")
		seconds  = flag.Float64("seconds", 10, "host seconds to measure (whole passes, at least one)")
		traced   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = flag.String("root", ".", "repository root (committed BENCH_*.json and references)")
		out      = flag.String("out", ".bench_build", "directory for the span dump")
		writeRef = flag.Bool("write-fuzz-ref", false, "record the decision counts of the fuzz runs at seed 0 into "+fuzzRefFile+" and exit")
	)
	flag.Parse()
	// One simulation goroutine, on one OS thread so its CPU clock is the
	// simulation's; the second processor runs the collector.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	runtime.LockOSThread()

	if *writeRef {
		if err := writeFuzzRef(*root); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloads()[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	r, err := loadRefs(*root)
	if err != nil {
		fatal(err)
	}

	var t tally
	t.check(w.warmup, runUntimed(r, w.warmup))
	budget := time.Duration(*seconds * float64(time.Second))
	var metrics []metric
	if *traced == 1 {
		if metrics, err = runTraced(w, *seed, budget, r, &t, *out); err != nil {
			fatal(err)
		}
	} else {
		metrics = runE2E(w, *seed, budget, r, &t)
	}
	emit(t, metrics)
}

// runUntimed runs and checks one unit the way the program's own front
// ends do: bench.Run for a sweep point, explore.Record for a fuzz run.
func runUntimed(r *refs, u unit) error {
	if u.fuzz != nil {
		out, err := explore.Record(*u.fuzz)
		if err != nil {
			return err
		}
		return r.checkFuzz(u, out)
	}
	res, err := bench.Run(u.cfg)
	if err != nil {
		return err
	}
	return r.checkPoint(u, res)
}

// runE2E repeats untraced passes until the budget is spent.
func runE2E(w workloadSpec, seed uint64, budget time.Duration, r *refs, t *tally) []metric {
	var e e2e
	start := time.Now()
	units := w.units(seed)
	for len(e.passes) == 0 || time.Since(start) < budget {
		e.startPass()
		for _, u := range units {
			t.check(u, runE2EUnit(&e, r, u))
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d passes, %d ns/decision samples\n", w.name, len(e.passes), len(e.samples))
	return e.metrics(peakRSSMB())
}

// runE2EUnit runs one unit untraced and checks its output.
func runE2EUnit(e *e2e, r *refs, u unit) error {
	if u.fuzz != nil {
		out, err := e.runFuzz(u)
		if err != nil {
			return err
		}
		return r.checkFuzz(u, out)
	}
	res, err := e.runPoint(u)
	if err != nil {
		return err
	}
	return r.checkPoint(u, res)
}

// emit prints the human-readable table to standard error and the result
// object as the last line of standard output.
func emit(t tally, ms []metric) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{t.failed == 0, t.attempted, t.failed, map[string]value{}}
	for _, m := range ms {
		fmt.Fprintf(os.Stderr, "  %-34s %16.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	fmt.Fprintf(os.Stderr, "  %-34s %16.6g (%d of %d units failed)\n", "failed_frac",
		float64(t.failed)/float64(t.attempted), t.failed, t.attempted)
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// peakRSSMB reads the process's peak resident set (VmHWM) from /proc.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		var kb float64
		for _, line := range strings.Split(string(b), "\n") {
			if n, _ := fmt.Sscanf(line, "VmHWM: %g kB", &kb); n == 1 {
				return kb / 1024
			}
		}
	}
	// No procfs: fall back to the memory the Go runtime obtained.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// writeFuzzRef records the reference decision count of every fuzz run at
// workload seed 0.
func writeFuzzRef(root string) error {
	steps := map[string]uint64{}
	for _, u := range fuzzUnits(0) {
		out, err := explore.Record(*u.fuzz)
		if err != nil {
			return err
		}
		if out.Verdict.Failed {
			return fmt.Errorf("%s: %s", u.name, out.Verdict)
		}
		steps[u.name] = out.Steps
	}
	b, err := json.MarshalIndent(steps, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, fuzzRefFile), append(b, '\n'), 0o644)
}
