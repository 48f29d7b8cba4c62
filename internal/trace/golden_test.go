package trace_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stacktrack/internal/bench"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestDumpGolden pins the text timeline byte for byte: event kinds, their
// order, virtual timestamps, argument rendering and the overflow notes.
// The head-mode dump shows the run's first events; the ring-mode dump of
// the same run shows its tail (scans, frees, preemptions). Both dumps'
// overflow counts pin how many events the recorder accepted in total.
// Regenerate with `go test ./internal/trace -run TestDumpGolden
// -update`; a diff means `stsim -trace` output changed.
func TestDumpGolden(t *testing.T) {
	var sb strings.Builder
	for _, ring := range []bool{false, true} {
		cfg := tracedConfig(64)
		cfg.RingTrace = ring
		res, err := bench.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Trace.Dump(&sb); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "dump_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Fatalf("trace dump differs from %s:\ngot:\n%s", path, sb.String())
	}
}
