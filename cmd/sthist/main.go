// Command sthist queries the result-history store and gates HEAD runs
// against archived trends.
//
// The store (internal/store) is the archive stserved and stctl append
// every completed result document to. sthist reads it directly — no
// server needed, and none may be running on the same directory, since
// the store is single-writer — and answers the questions CI and a
// developer actually ask of history:
//
//	sthist -store DIR                              # list archived runs
//	sthist -store DIR -history -experiment E1a     # per-run point values
//	sthist -store DIR -trends -experiment E1a      # metric series + sparklines
//	sthist -store DIR -gate head.json              # HEAD vs rolling history
//	sthist -store DIR -import BENCH_E1a.json ...   # seed history from snapshots
//	sthist -store DIR -compact                     # apply retention, rewrite segments
//
// The gate compares every metric of every point in head.json against
// the rolling median of the last -window archived runs, with a
// tolerance scaled by the history's own spread (MAD) and floored at
// -min-tol. Violations are reported with a CUSUM changepoint scan that
// names the archived run the metric shifted at. -inject metric=factor
// scales one metric of the HEAD document before gating — a self-test
// hook proving the gate catches what it claims to catch.
//
// Exit status: 0 clean, 1 on gate findings or I/O failure, 2 on usage
// errors.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"stacktrack/internal/bench"
	"stacktrack/internal/cli"
	"stacktrack/internal/store"
)

func main() {
	var (
		storeDir = flag.String("store", "", "result-history store directory (required)")

		experiment = flag.String("experiment", "", "filter: experiment name or ID")
		scheme     = flag.String("scheme", "", "filter: scheme (point series), e.g. StackTrack")
		threadsF   = flag.Int("threads", 0, "filter: thread count")
		last       = flag.Int("last", 0, "only the most recent N matching runs (0 = all)")

		history = flag.Bool("history", false, "print per-run point values for the matching runs")
		trends  = flag.Bool("trends", false, "print per-metric trend series with sparklines")
		gate    = flag.String("gate", "", "gate this results JSON against the archived trends")
		doImp   = flag.Bool("import", false, "import positional results JSON files into the store")
		compact = flag.Bool("compact", false, "apply the retention policy and rewrite segments")

		window     = flag.Int("window", 0, "gate: rolling window of history points (default 20)")
		minHistory = flag.Int("min-history", 0, "gate: fewest history points needed to gate a metric (default 3)")
		kFactor    = flag.Float64("k", 0, "gate: MAD multiplier for the tolerance band (default 4)")
		minTol     = flag.Float64("min-tol", 0, "gate: relative tolerance floor (default 0.10)")
		inject     = flag.String("inject", "", "gate self-test: scale one HEAD metric, e.g. throughput=0.85")

		retainN   = flag.Int("retain", 0, "compact: keep the newest N records per experiment (0 = all)")
		retainMax = flag.Int64("retain-bytes", 0, "compact: drop oldest records beyond this byte budget (0 = unbounded)")
	)
	flag.Parse()

	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "sthist: -store is required")
		os.Exit(cli.ExitUsage)
	}
	modes := 0
	for _, on := range []bool{*history, *trends, *gate != "", *doImp, *compact} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "sthist: pick one of -history, -trends, -gate, -import, -compact")
		os.Exit(cli.ExitUsage)
	}
	if !*doImp && flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "sthist: unexpected arguments: %v\n", flag.Args())
		os.Exit(cli.ExitUsage)
	}

	st, err := store.Open(*storeDir, store.Options{
		Retain: store.Retention{PerExperiment: *retainN, MaxBytes: *retainMax},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sthist: %v\n", err)
		os.Exit(cli.ExitFailure)
	}
	defer st.Close()

	q := store.Query{Experiment: *experiment, Scheme: *scheme, Threads: *threadsF, LastN: *last}
	gcfg := store.GateConfig{Window: *window, MinHistory: *minHistory, K: *kFactor, MinRel: *minTol}

	switch {
	case *doImp:
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "sthist: -import needs results JSON files as arguments")
			os.Exit(cli.ExitUsage)
		}
		if err := runImport(st, flag.Args()); err != nil {
			fmt.Fprintf(os.Stderr, "sthist: %v\n", err)
			os.Exit(cli.ExitFailure)
		}
	case *compact:
		cs, err := st.Compact()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sthist: compact: %v\n", err)
			os.Exit(cli.ExitFailure)
		}
		fmt.Printf("compacted: %d -> %d segments, kept %d records, dropped %d, reclaimed %d bytes\n",
			cs.SegmentsBefore, cs.SegmentsAfter, cs.Kept, cs.Dropped, cs.BytesReclaimed)
	case *history:
		if err := runHistory(st, q); err != nil {
			fmt.Fprintf(os.Stderr, "sthist: %v\n", err)
			os.Exit(cli.ExitFailure)
		}
	case *trends:
		if err := runTrends(st, q); err != nil {
			fmt.Fprintf(os.Stderr, "sthist: %v\n", err)
			os.Exit(cli.ExitFailure)
		}
	case *gate != "":
		findings, err := runGate(st, *gate, *inject, q, gcfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sthist: %v\n", err)
			os.Exit(cli.ExitFailure)
		}
		if len(findings) > 0 {
			os.Exit(cli.ExitFailure)
		}
	default:
		runList(st, q)
	}
}

// runList prints one line per matching archived run.
func runList(st *store.Store, q store.Query) {
	recs := st.Records(q)
	if len(recs) == 0 {
		fmt.Println("no archived runs match")
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "SEQ\tWHEN\tEXPERIMENT\tSCHEMES\tTHREADS\tSOURCE\tCOMMIT\tDURATION")
	for _, m := range recs {
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			m.Seq,
			time.UnixMilli(m.UnixMs).UTC().Format("2006-01-02 15:04:05"),
			m.Experiment,
			strings.Join(m.Schemes, ","),
			intList(m.Threads),
			m.Source,
			shortCommit(m.Commit),
			duration(m.DurationMs),
		)
	}
	w.Flush()
	s := st.Stats()
	fmt.Printf("%d runs shown; store: %d records, %d segments, %d bytes\n",
		len(recs), s.Records, s.Segments, s.Bytes)
}

// runHistory prints the matching runs' point values, one row per
// (run, point).
func runHistory(st *store.Store, q store.Query) error {
	entries, err := st.History(q)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Println("no archived runs match")
		return nil
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "SEQ\tWHEN\tSERIES\tTHREADS\tOPS\tTHROUGHPUT")
	for _, e := range entries {
		for _, p := range e.Points {
			fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\t%.4g\n",
				e.Meta.Seq,
				time.UnixMilli(e.Meta.UnixMs).UTC().Format("2006-01-02 15:04:05"),
				p.Series, p.Threads, p.Ops, p.Throughput)
		}
	}
	return w.Flush()
}

// runTrends prints one row per metric series: its latest value, the
// range, and a sparkline over history.
func runTrends(st *store.Store, q store.Query) error {
	series, err := st.Trends(q)
	if err != nil {
		return err
	}
	if len(series) == 0 {
		fmt.Println("no archived runs match")
		return nil
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "EXPERIMENT\tSERIES\tTHREADS\tMETRIC\tRUNS\tLATEST\tMIN\tMAX\tTREND")
	for _, s := range series {
		values := make([]float64, len(s.Points))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, p := range s.Points {
			values[i] = p.Value
			lo, hi = math.Min(lo, p.Value), math.Max(hi, p.Value)
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%d\t%.4g\t%.4g\t%.4g\t%s\n",
			s.Experiment, s.Series, s.Threads, s.Metric,
			len(values), values[len(values)-1], lo, hi, sparkline(values))
	}
	return w.Flush()
}

// sparkline renders values scaled into ▁..█ (flat series render mid).
func sparkline(values []float64) string {
	const ramp = "▁▂▃▄▅▆▇█"
	runes := []rune(ramp)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range values {
		i := len(runes) / 2
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(runes)-1))
		}
		b.WriteRune(runes[i])
	}
	return b.String()
}

// runImport seeds the store from committed snapshot files (baselines,
// stbench -json output). Meta blocks, when present, carry their
// provenance into the record.
func runImport(st *store.Store, paths []string) error {
	for _, path := range paths {
		payload, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		meta, err := store.DescribePayload(payload)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		meta.Source = "import"
		if doc, err := bench.DecodeResults(payload); err == nil && doc.Meta != nil {
			meta.Commit = doc.Meta.Commit
			meta.GoVersion = doc.Meta.GoVersion
			meta.DurationMs = doc.Meta.DurationMs
		}
		rec, err := st.Append(meta, payload)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("imported %s as run seq %d (%s)\n", path, rec.Seq, meta.Experiment)
	}
	return nil
}

// runGate loads the HEAD document, optionally injects a synthetic
// shift, and gates every experiment in it against the archive.
func runGate(st *store.Store, path, inject string, q store.Query, cfg store.GateConfig) ([]store.GateFinding, error) {
	doc, err := bench.ReadResultsJSON(path)
	if err != nil {
		return nil, err
	}
	if inject != "" {
		metric, factor, err := parseInject(inject)
		if err != nil {
			return nil, err
		}
		n := injectShift(doc, metric, factor)
		fmt.Fprintf(os.Stderr, "sthist: injected %s x%g into %d points of %s\n", metric, factor, n, path)
	}
	var all []store.GateFinding
	for _, x := range doc.Experiments {
		id := x.ID
		if id == "" {
			id = x.Name
		}
		if q.Experiment != "" && id != q.Experiment && x.Name != q.Experiment {
			continue
		}
		tq := q
		tq.Experiment = id
		trends, err := st.Trends(tq)
		if err != nil {
			return nil, err
		}
		all = append(all, store.Gate(trends, x, cfg)...)
	}
	if len(all) == 0 {
		fmt.Printf("gate clean: %s is consistent with archived history\n", path)
		return nil, nil
	}
	fmt.Printf("gate FAILED: %d metric(s) outside their trend band:\n", len(all))
	for _, f := range all {
		fmt.Printf("  %s\n", f)
	}
	return all, nil
}

// parseInject splits "metric=factor".
func parseInject(s string) (string, float64, error) {
	metric, factorStr, ok := strings.Cut(s, "=")
	if !ok || metric == "" {
		return "", 0, fmt.Errorf("-inject wants metric=factor, got %q", s)
	}
	factor, err := strconv.ParseFloat(factorStr, 64)
	if err != nil || factor <= 0 {
		return "", 0, fmt.Errorf("-inject factor %q must be a positive number", factorStr)
	}
	return metric, factor, nil
}

// injectShift scales one metric across every point of the document,
// returning how many points it touched.
func injectShift(doc *bench.ResultsJSON, metric string, factor float64) int {
	n := 0
	for _, x := range doc.Experiments {
		for i := range x.Points {
			p := &x.Points[i]
			switch {
			case metric == "throughput":
				p.Throughput *= factor
			case metric == "ops":
				p.Ops = uint64(float64(p.Ops) * factor)
			case strings.HasPrefix(metric, "derived."):
				name := strings.TrimPrefix(metric, "derived.")
				if _, ok := p.Derived[name]; !ok {
					continue
				}
				p.Derived[name] *= factor
			default:
				continue
			}
			n++
		}
	}
	return n
}

// intList renders thread counts compactly ("1,2,4,8").
func intList(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// shortCommit abbreviates a VCS revision for table output.
func shortCommit(c string) string {
	if len(c) > 10 {
		return c[:10]
	}
	if c == "" {
		return "-"
	}
	return c
}

// duration renders a wall-clock cost in ms, "-" when unknown.
func duration(ms float64) string {
	if ms <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0fms", ms)
}
