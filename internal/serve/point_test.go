package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"stacktrack/internal/bench"
)

// pointBody is a shard of the two-thread E1a sweep used across the
// point-job tests; small enough to simulate for real.
const pointOptions = `"options": {"threads": [1, 2], "measure_ms": 0.5, "warmup_ms": 0.1}`

// TestPointJobRunsShard: a point job simulates exactly the requested
// thread counts, records the full sweep's options block, and is served
// from cache on resubmission.
func TestPointJobRunsShard(t *testing.T) {
	srv := NewServer(PoolConfig{Workers: 2, QueueDepth: 8}, NewCache(8, nil))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	body := `{"experiment": "E1a", "shard": [2], ` + pointOptions + `}`
	code, view := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	if view.Kind != KindPoint {
		t.Fatalf("kind = %q, want %q (inferred from shard)", view.Kind, KindPoint)
	}
	waitStatus(t, srv.Pool(), view.ID, StatusDone)
	_, raw := getResult(t, ts, view.ID)

	var doc bench.ResultsJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("result: %v", err)
	}
	if len(doc.Experiments) != 1 {
		t.Fatalf("experiments = %d", len(doc.Experiments))
	}
	x := doc.Experiments[0]
	if len(x.Points) == 0 {
		t.Fatal("shard produced no points")
	}
	for _, p := range x.Points {
		if p.Threads != 2 {
			t.Fatalf("point at %d threads; shard was [2]", p.Threads)
		}
	}
	// The options block records the FULL sweep, not the shard — that is
	// what makes shard documents spliceable into the full document.
	if len(x.Options.Threads) != 2 || x.Options.Threads[0] != 1 || x.Options.Threads[1] != 2 {
		t.Fatalf("options threads = %v, want the full sweep [1 2]", x.Options.Threads)
	}

	code, view2 := postJob(t, ts, body)
	if code != http.StatusOK || !view2.Cached {
		t.Fatalf("resubmit: status %d cached %v, want cache hit", code, view2.Cached)
	}
}

// TestPointJobSplicesIntoFullSweep: concatenating the per-point shard
// results reproduces the whole-sweep job's points byte for byte — the
// serve-layer half of the distributed merge invariant.
func TestPointJobSplicesIntoFullSweep(t *testing.T) {
	srv := NewServer(PoolConfig{Workers: 2, QueueDepth: 8}, NewCache(8, nil))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	run := func(body string) *bench.ExperimentJSON {
		t.Helper()
		code, view := postJob(t, ts, body)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("POST %s: status %d", body, code)
		}
		waitStatus(t, srv.Pool(), view.ID, StatusDone)
		_, raw := getResult(t, ts, view.ID)
		var doc bench.ResultsJSON
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("result: %v", err)
		}
		return doc.Experiments[0]
	}

	full := run(`{"experiment": "E1a", ` + pointOptions + `}`)
	var merged []bench.PointJSON
	for _, shard := range []string{"[1]", "[2]"} {
		merged = append(merged, run(`{"experiment": "E1a", "shard": `+shard+`, `+pointOptions+`}`).Points...)
	}

	mb, _ := json.Marshal(merged)
	fb, _ := json.Marshal(full.Points)
	if string(mb) != string(fb) {
		t.Fatalf("spliced shard points differ from the full sweep:\n%s\nvs\n%s", mb, fb)
	}
}

// TestPointJobValidation: malformed point jobs are refused up front.
func TestPointJobValidation(t *testing.T) {
	srv := newTestServer(PoolConfig{Workers: 1, QueueDepth: 4}, nil,
		func(ctx context.Context, job *Job) ([]byte, error) { return []byte("{}\n"), nil })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	for _, tc := range []struct{ name, body string }{
		{"explicit kind without shard", `{"kind": "point", "experiment": "E1a"}`},
		{"unknown experiment", `{"experiment": "E99x", "shard": [2]}`},
		{"no experiment", `{"kind": "point", "shard": [2]}`},
	} {
		if code, _ := postJob(t, ts, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
}
