// Command stbench regenerates the evaluation of the StackTrack paper
// (EuroSys 2014) on the simulated machine: every figure and the scan-
// statistics table, as aligned text, CSV, or versioned JSON.
//
// Usage:
//
//	stbench [flags] [experiment ...]
//
// With no arguments it runs every experiment in paper order. Experiments
// are named by long name (figure1-list), short ID (E1a), or alias
// (fig1-list); `-list` prints all three. `-run` is equivalent to naming
// experiments positionally.
//
// JSON and regression gating:
//
//	stbench -quick -run E1a -json out.json          # machine-readable results
//	stbench -quick -run E1a,E2b,E3 -baseline .      # write BENCH_<ID>.json baselines
//	stbench -quick -run E1a,E2b,E3 -compare .       # diff against the baselines
//
// The simulator is deterministic, so -compare demands exact counter
// equality by default (-counter-tol relaxes it); throughput and derived
// rates are allowed -tol relative drift (default 10%). The regression
// gate for simulated numbers is byte-identity: scripts/bench_gate.sh
// regenerates the committed baselines with -baseline and cmp's them,
// running -compare -tol 0 in the same invocation so that a mismatch
// names every metric that moved. Host speed is measured by perfbench,
// not by stbench.
//
// SIGINT/SIGTERM cancel cooperatively: the running sweep stops at the
// next scheduling-decision boundary, completed experiments (and the
// interrupted experiment's completed points) are still flushed to -json,
// and the exit status distinguishes the interruption.
//
// Exit status: 1 on regression, 2 on usage errors (unknown experiment,
// bad flags), 130 when interrupted.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"stacktrack/internal/bench"
	"stacktrack/internal/cli"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "reduced sweep (fewer thread counts, shorter runs)")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		measureMs  = flag.Float64("measure-ms", 0, "virtual measurement window per point (ms)")
		warmupMs   = flag.Float64("warmup-ms", 0, "virtual warmup per point (ms)")
		seed       = flag.Uint64("seed", 0, "master seed (0 = default)")
		threads    = flag.String("threads", "", "comma-separated thread counts (e.g. 1,2,4,8,16)")
		verbose    = flag.Bool("v", false, "print per-point progress to stderr")
		list       = flag.Bool("list", false, "list experiment names and exit")
		run        = flag.String("run", "", "comma-separated experiments (names, IDs, or aliases)")
		jsonOut    = flag.String("json", "", "write results as versioned JSON to this file")
		baseline   = flag.String("baseline", "", "write one BENCH_<ID>.json baseline per experiment into this directory")
		compare    = flag.String("compare", "", "compare against BENCH_<ID>.json baselines in this directory; exit 1 on regression")
		tol        = flag.Float64("tol", 0.10, "relative tolerance for throughput and derived rates in -compare")
		counterTol = flag.Float64("counter-tol", 0, "relative tolerance for raw counters in -compare (0 = exact)")
		profile    = flag.Bool("profile", false, "enable the virtual-cycle profiler on every point")
		checkEff   = flag.Bool("check-effects", false, "arm the effect-soundness oracle on every point (declared effects vs executed accesses)")
		noElide    = flag.Bool("no-scan-elide", false, "disable dataflow-driven scan elision (scan every frame word and register)")
	)
	prof := cli.ProfileFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "stbench: %v\n", err)
		cli.Exit(cli.ExitUsage)
	}
	defer stopProf()

	if *list {
		for _, line := range bench.ExperimentInventory() {
			fmt.Println(line)
		}
		return
	}

	ctx, cancel := cli.SignalContext()
	defer cancel()

	opts := bench.Options{Ctx: ctx}
	if *quick {
		opts = bench.QuickOptions()
		opts.Ctx = ctx
	}
	if *measureMs > 0 {
		opts.MeasureMs = *measureMs
	}
	if *warmupMs > 0 {
		opts.WarmupMs = *warmupMs
	}
	opts.Seed = *seed
	opts.Profile = *profile
	opts.CheckEffects = *checkEff
	opts.NoScanElide = *noElide
	if *threads != "" {
		parsed, err := cli.ParseIntList(*threads)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stbench: -threads: %v\n", err)
			cli.Exit(cli.ExitUsage)
		}
		opts.Threads = parsed
	}
	if *verbose {
		opts.Progress = os.Stderr
	}

	// The effect-soundness oracle fills Result.San per point; watch the
	// points as they complete so a violation fails the whole run loudly
	// instead of vanishing with the Result.
	var effViolations uint64
	var effFirst string
	if *checkEff {
		opts.Collect = func(series string, threadCount int, res *bench.Result) {
			if res.San == nil || res.San.EffectViolations == 0 {
				return
			}
			effViolations += res.San.EffectViolations
			if effFirst == "" && len(res.San.Effects) > 0 {
				effFirst = res.San.Effects[0].String()
			}
		}
	}

	// Selection: -run entries plus positional names; empty = everything.
	want := append(cli.SplitList(*run), flag.Args()...)

	var exps []*bench.Experiment
	if len(want) == 0 {
		for i := range bench.Experiments {
			exps = append(exps, &bench.Experiments[i])
		}
	} else {
		for _, w := range want {
			e := bench.FindExperiment(w)
			if e == nil {
				fmt.Fprintf(os.Stderr, "stbench: unknown experiment %q\n", w)
				if sug := bench.SuggestExperiments(w); len(sug) > 0 {
					fmt.Fprintf(os.Stderr, "did you mean:\n")
					for _, s := range sug {
						fmt.Fprintf(os.Stderr, "  %s\n", s.Describe())
					}
				}
				fmt.Fprintf(os.Stderr, "available experiments (name, ID, alias):\n")
				for _, line := range bench.ExperimentInventory() {
					fmt.Fprintf(os.Stderr, "  %s\n", line)
				}
				cli.Exit(cli.ExitUsage)
			}
			exps = append(exps, e)
		}
	}

	needJSON := *jsonOut != "" || *baseline != "" || *compare != ""
	tolerance := bench.Tolerance{Rate: *tol, Counter: *counterTol}
	var docs []*bench.ExperimentJSON
	var regressions []bench.Regression
	complete := 0 // experiments that ran to the end; docs[complete:] are partial
	interrupted := false
	started := time.Now()
	for _, e := range exps {
		var tb *bench.Table
		var err error
		if needJSON {
			var doc *bench.ExperimentJSON
			doc, tb, err = bench.RunExperimentJSON(e, opts)
			if doc != nil {
				// A cancelled sweep still hands back its completed points;
				// they are flushed to -json but never become a baseline or
				// a comparison subject.
				docs = append(docs, doc)
			}
		} else {
			tb, err = e.Run(opts)
		}
		if err != nil {
			if cli.Interrupted(err) {
				fmt.Fprintf(os.Stderr, "stbench: interrupted during %s; flushing partial results\n", e.Name)
				interrupted = true
				break
			}
			fmt.Fprintf(os.Stderr, "stbench: %s: %v\n", e.Name, err)
			cli.Exit(cli.ExitFailure)
		}
		complete++
		if *csv {
			fmt.Printf("# %s\n", tb.Title)
			tb.CSV(os.Stdout)
			fmt.Println()
		} else {
			tb.Fprint(os.Stdout)
		}
	}

	if *jsonOut != "" {
		// -json output carries a host-side provenance block (wall-clock
		// duration, toolchain, VCS commit). It is deliberately absent from
		// -baseline files: meta is outside every content address, and
		// baselines must stay byte-identical across hosts and commits.
		p := cli.Provenance()
		doc := &bench.ResultsJSON{
			Schema: bench.SchemaVersion,
			Meta: &bench.RunMeta{
				DurationMs: float64(time.Since(started).Microseconds()) / 1000,
				GoVersion:  p.GoVersion,
				Commit:     p.Commit,
				Dirty:      p.Dirty,
			},
			Experiments: docs,
		}
		if err := bench.WriteResultsJSON(*jsonOut, doc); err != nil {
			fmt.Fprintf(os.Stderr, "stbench: %v\n", err)
			cli.Exit(cli.ExitFailure)
		}
	}
	if *baseline != "" {
		for i := 0; i < complete; i++ {
			doc := &bench.ResultsJSON{Schema: bench.SchemaVersion, Experiments: docs[i : i+1]}
			path := bench.BaselineFile(*baseline, exps[i])
			if err := bench.WriteResultsJSON(path, doc); err != nil {
				fmt.Fprintf(os.Stderr, "stbench: %v\n", err)
				cli.Exit(cli.ExitFailure)
			}
			fmt.Fprintf(os.Stderr, "stbench: wrote baseline %s\n", path)
		}
	}
	if *compare != "" && !interrupted {
		for i := 0; i < complete; i++ {
			ref, err := bench.LoadBaseline(*compare, exps[i])
			if err != nil {
				fmt.Fprintf(os.Stderr, "stbench: %v\n", err)
				cli.Exit(cli.ExitFailure)
			}
			regressions = append(regressions, bench.CompareExperiments(ref, docs[i], tolerance)...)
		}
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "stbench: %d regression(s) against baselines in %s:\n", len(regressions), *compare)
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			cli.Exit(cli.ExitFailure)
		}
		fmt.Fprintf(os.Stderr, "stbench: no regressions against baselines in %s\n", *compare)
	}
	if interrupted {
		if *compare != "" {
			fmt.Fprintf(os.Stderr, "stbench: skipping -compare: the run is incomplete\n")
		}
		cli.Exit(cli.ExitInterrupted)
	}
	if effViolations > 0 {
		fmt.Fprintf(os.Stderr, "stbench: %d effect violation(s); first: %s\n", effViolations, effFirst)
		cli.Exit(cli.ExitFailure)
	}
}
