package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"stacktrack/internal/bench"
	"stacktrack/internal/explore"
	"stacktrack/internal/serve"
)

// tinySweep keeps distributed tests fast: three shards, sub-millisecond
// measurement windows, the real simulator.
func tinySweep() *serve.SweepOptions {
	return &serve.SweepOptions{Threads: []int{1, 2, 4}, MeasureMs: 0.5, WarmupMs: 0.1}
}

// realWorker starts a full stserved stack (real simulator, real cache)
// on an httptest listener.
func realWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := serve.NewServer(serve.PoolConfig{Workers: 2, QueueDepth: 16}, serve.NewCache(64, nil))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})
	return ts
}

// singleNodeDoc computes the reference document the way stbench -json
// does: run every experiment in-process, assemble one ResultsJSON,
// MarshalIndent, trailing newline.
func singleNodeDoc(t *testing.T, names []string, so *serve.SweepOptions) []byte {
	t.Helper()
	doc := &bench.ResultsJSON{Schema: bench.SchemaVersion}
	for _, name := range names {
		e := bench.FindExperiment(name)
		if e == nil {
			t.Fatalf("unknown experiment %q", name)
		}
		x, _, err := bench.RunExperimentJSON(e, so.BenchOptions())
		if err != nil {
			t.Fatal(err)
		}
		doc.Experiments = append(doc.Experiments, x)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func newCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestMergeBitIdentical: a two-worker distributed sweep over two
// experiments produces exactly the bytes a single-node run produces.
func TestMergeBitIdentical(t *testing.T) {
	w1, w2 := realWorker(t), realWorker(t)
	c := newCoordinator(t, Config{
		Workers:      []string{w1.URL, w2.URL},
		ShardTimeout: 30 * time.Second,
	})

	names := []string{"E1a", "E3"}
	got, err := c.RunExperiments(context.Background(), names, tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	want := singleNodeDoc(t, names, tinySweep())
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed document differs from single-node (%d vs %d bytes)\ndistributed:\n%s\nsingle-node:\n%s",
			len(got), len(want), got, want)
	}
}

// TestMergeRespectsExperimentAxis: E10 owns its thread axis (the
// big-machine list, not Options.Threads); the shard plan must follow it
// and the merged document must still match single-node. Trimmed to two
// axis points by... it can't be trimmed — E10's axis is fixed — so this
// uses E9 instead, whose axis drops the single-thread point.
func TestMergeRespectsExperimentAxis(t *testing.T) {
	w := realWorker(t)
	c := newCoordinator(t, Config{Workers: []string{w.URL}, ShardTimeout: 60 * time.Second})

	so := &serve.SweepOptions{Threads: []int{1, 2}, MeasureMs: 0.5, WarmupMs: 0.1}
	got, err := c.RunExperiments(context.Background(), []string{"E9"}, so)
	if err != nil {
		t.Fatal(err)
	}
	want := singleNodeDoc(t, []string{"E9"}, so)
	if !bytes.Equal(got, want) {
		t.Fatalf("E9 distributed document differs from single-node:\n%s\nvs\n%s", got, want)
	}
}

// TestExploreShardedMatchesSingleNode: a deterministic fuzz campaign
// sharded into seed ranges merges to the exact bytes the same campaign
// produces as one single-node job.
func TestExploreShardedMatchesSingleNode(t *testing.T) {
	w1, w2 := realWorker(t), realWorker(t)
	c := newCoordinator(t, Config{
		Workers:      []string{w1.URL, w2.URL},
		ShardTimeout: 60 * time.Second,
	})

	spec := serve.ExploreSpec{
		Config:  explore.RunConfig{Structure: "list", Scheme: "stacktrack", Threads: 3, Seed: 1},
		Workers: 1,
		MaxRuns: 6,
	}
	got, err := c.RunExplore(context.Background(), spec, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Single-node reference: the same campaign as one job on worker 1,
	// bytes straight off the wire.
	body, _ := json.Marshal(serve.JobRequest{Kind: serve.KindExplore, Explore: &spec})
	wk := newWorker(w1.URL)
	want, err := wk.runJob(context.Background(), c.cfg.Client, serve.JobRequest{Kind: serve.KindExplore, Explore: &spec})
	if err != nil {
		t.Fatalf("single-node campaign (%s): %v", body, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded campaign differs from single-node:\n%s\nvs\n%s", got, want)
	}

	// Non-deterministic campaigns are refused up front.
	bad := spec
	bad.WallMs = 1000
	if _, err := c.RunExplore(context.Background(), bad, 3); err == nil {
		t.Fatal("wall-clock campaign was sharded")
	}
}

// TestLeastLoadedDispatchSpreadsShards: with two idle workers, a sweep's
// shards do not all pile onto one of them.
func TestLeastLoadedDispatchSpreadsShards(t *testing.T) {
	w1, w2 := realWorker(t), realWorker(t)
	c := newCoordinator(t, Config{
		Workers:      []string{w1.URL, w2.URL},
		ShardTimeout: 30 * time.Second,
	})
	if _, err := c.RunExperiments(context.Background(), []string{"E1a"}, tinySweep()); err != nil {
		t.Fatal(err)
	}

	// Every worker saw at least one job: check via /v1/stats.
	for i, ts := range []*httptest.Server{w1, w2} {
		wk := newWorker(ts.URL)
		if !wk.checkHealth(context.Background(), c.cfg.Client) {
			t.Fatalf("worker %d unreachable", i)
		}
		if wk.load < 0 {
			t.Fatalf("worker %d bogus load", i)
		}
	}
	accepted := 0
	for _, ts := range []*httptest.Server{w1, w2} {
		var stats struct {
			Pool serve.PoolStats `json:"pool"`
		}
		resp, err := c.cfg.Client.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if stats.Pool.Accepted == 0 {
			t.Errorf("worker %s never saw a job: dispatch is not spreading", ts.URL)
		}
		accepted += int(stats.Pool.Accepted)
	}
	if accepted < 3 {
		t.Fatalf("fleet accepted %d jobs, want >= 3 (one per shard)", accepted)
	}
}
