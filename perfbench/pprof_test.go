package main

import (
	"bytes"
	"context"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// spin burns CPU in this package for d.
func spin(d time.Duration) {
	x := uint64(1)
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink += x
}

// TestPackageShares profiles a labeled busy loop beside an unlabeled one
// and checks that the decoder keeps only the labeled samples and
// attributes them to this package.
func TestPackageShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	spin(200 * time.Millisecond)
	pprof.Do(context.Background(), pprof.Labels(measuredLabel, "1"), func(context.Context) {
		spin(400 * time.Millisecond)
	})
	pprof.StopCPUProfile()

	shares, err := packageShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if shares["perfbench"] < 0.8 {
		t.Errorf("perfbench share %v, want most of the labeled samples (%v)", shares["perfbench"], shares)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"stacktrack/internal/sched.(*Scheduler).Run": "sched",
		"stacktrack/internal/prog/dataflow.Analyze":  "prog",
		"stacktrack/internal/cost.FromSeconds":       "other",
		"runtime.mallocgc":                           "runtime",
		"internal/runtime/maps.(*Map).Get":           "runtime",
		"main.spin":                                  "perfbench",
		"stacktrack/perfbench.spin":                  "perfbench",
		"sort.Float64s":                              "other",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
