package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestServer wires a Server around a stub Runner so robustness tests
// (backpressure, timeouts, shutdown) don't pay for real simulations.
func newTestServer(cfg PoolConfig, cache *Cache, run Runner) *Server {
	s := &Server{cache: cache}
	s.pool = NewPool(cfg, cache, run)
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

func postJob(t *testing.T, ts *httptest.Server, body string) (int, JobView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decoding job view: %v", err)
		}
	}
	return resp.StatusCode, view
}

func getResult(t *testing.T, ts *httptest.Server, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func waitStatus(t *testing.T, p *Pool, id, want string) {
	t.Helper()
	j := p.Job(id)
	if j == nil {
		t.Fatalf("job %s vanished", id)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish (status %s)", id, j.Status())
	}
	if got := j.Status(); got != want {
		t.Fatalf("job %s status = %s, want %s (error %q)", id, got, want, j.View().Error)
	}
}

// --- cache ---

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2, nil)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", []byte("3")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("a = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// --- dedup and caching over HTTP ---

// TestConcurrentDedup: N identical POSTs while the job runs collapse to
// ONE simulation; every submitter sees the same job and the same bytes.
func TestConcurrentDedup(t *testing.T) {
	var execs atomic.Int32
	release := make(chan struct{})
	srv := newTestServer(PoolConfig{Workers: 2, QueueDepth: 8}, NewCache(8, nil),
		func(ctx context.Context, job *Job) ([]byte, error) {
			execs.Add(1)
			<-release
			return []byte("{\"result\":42}\n"), nil
		})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	const n = 8
	body := `{"experiment": "E1a", "options": {"quick": true}}`
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, view := postJob(t, ts, body)
			if code != http.StatusAccepted {
				t.Errorf("POST %d: status %d", i, code)
			}
			ids[i] = view.ID
		}(i)
	}
	wg.Wait()
	close(release)

	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("deduplication failed: job IDs %v", ids)
		}
	}
	waitStatus(t, srv.pool, ids[0], StatusDone)
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d identical submissions ran %d simulations, want 1", n, got)
	}
	if st := srv.pool.Stats(); st.Deduped != n-1 {
		t.Fatalf("deduped = %d, want %d", st.Deduped, n-1)
	}

	// After completion, the same submission is a cache hit: HTTP 200,
	// already done, same bytes.
	code, view := postJob(t, ts, body)
	if code != http.StatusOK || !view.Cached {
		t.Fatalf("post-completion submit: status %d, cached %v", code, view.Cached)
	}
	_, b1 := getResult(t, ts, ids[0])
	_, b2 := getResult(t, ts, view.ID)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached bytes differ:\n%s\nvs\n%s", b1, b2)
	}
}

// TestCacheByteIdenticalToColdRecompute runs a real (tiny) experiment
// twice — once cold, once via no_cache recompute — and asserts the
// cached response is byte-identical to an actual fresh computation.
func TestCacheByteIdenticalToColdRecompute(t *testing.T) {
	srv := NewServer(PoolConfig{Workers: 2, QueueDepth: 8}, NewCache(8, nil))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	body := `{"experiment": "E1a", "options": {"threads": [2], "measure_ms": 0.5, "warmup_ms": 0.2}}`

	code, cold := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("cold submit: status %d", code)
	}
	waitStatus(t, srv.pool, cold.ID, StatusDone)
	_, coldBytes := getResult(t, ts, cold.ID)
	if len(coldBytes) == 0 || !json.Valid(coldBytes) {
		t.Fatalf("cold result invalid: %q", coldBytes)
	}

	// Cached: same submission is served without running (pool counter
	// proves no second simulation happened).
	before := srv.pool.Stats().Completed
	code, hit := postJob(t, ts, body)
	if code != http.StatusOK || !hit.Cached {
		t.Fatalf("warm submit: status %d cached %v", code, hit.Cached)
	}
	_, hitBytes := getResult(t, ts, hit.ID)
	if !bytes.Equal(coldBytes, hitBytes) {
		t.Fatalf("cache hit is not byte-identical to cold run")
	}
	if after := srv.pool.Stats().Completed; after != before {
		t.Fatalf("cache hit ran a simulation (completed %d -> %d)", before, after)
	}

	// Forced recompute (no_cache) must reproduce the same bytes — the
	// determinism claim the whole cache design rests on.
	code, re := postJob(t, ts, `{"experiment": "E1a", "options": {"threads": [2], "measure_ms": 0.5, "warmup_ms": 0.2}, "no_cache": true}`)
	if code != http.StatusAccepted || re.Cached {
		t.Fatalf("no_cache submit: status %d cached %v", code, re.Cached)
	}
	waitStatus(t, srv.pool, re.ID, StatusDone)
	_, reBytes := getResult(t, ts, re.ID)
	if !bytes.Equal(coldBytes, reBytes) {
		t.Fatalf("recompute is not byte-identical to first run:\n%s\nvs\n%s", coldBytes, reBytes)
	}
}

// --- backpressure ---

// TestQueueFull429 fills the workers and the queue, then asserts the
// next submission is rejected immediately with 429 instead of blocking.
func TestQueueFull429(t *testing.T) {
	release := make(chan struct{})
	srv := newTestServer(PoolConfig{Workers: 1, QueueDepth: 1}, nil,
		func(ctx context.Context, job *Job) ([]byte, error) {
			<-release
			return []byte("{}\n"), nil
		})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() { close(release); srv.Shutdown(context.Background()) }()

	// Distinct seeds → distinct content keys → no dedup collapse.
	submit := func(seed int) (int, JobView) {
		return postJob(t, ts, fmt.Sprintf(`{"experiment": "E1a", "options": {"seed": %d}}`, seed))
	}
	code1, v1 := submit(1) // taken by the worker
	if code1 != http.StatusAccepted {
		t.Fatalf("submit 1: %d", code1)
	}
	// Wait until the worker actually picked job 1 up, so job 2 occupies
	// the queue slot deterministically.
	deadline := time.Now().Add(5 * time.Second)
	for srv.pool.Job(v1.ID).Status() != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("job 1 never started")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := submit(2); code != http.StatusAccepted { // queued
		t.Fatalf("submit 2: %d", code)
	}

	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment": "E1a", "options": {"seed": 3}}`))
	if err != nil {
		t.Fatalf("submit 3: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 3: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("429 took %v — the full queue blocked the request", took)
	}
	if st := srv.pool.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
}

// --- cancellation, timeouts, panics ---

func TestJobTimeout(t *testing.T) {
	srv := newTestServer(PoolConfig{Workers: 1, QueueDepth: 4}, nil,
		func(ctx context.Context, job *Job) ([]byte, error) {
			<-ctx.Done() // a well-behaved runner returns the context error
			return nil, ctx.Err()
		})
	defer srv.Shutdown(context.Background())

	job, err := srv.pool.Submit(JobRequest{Experiment: "E1a", TimeoutMs: 50}, "k-timeout")
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, srv.pool, job.ID, StatusCancelled)
	if got := job.View().Error; got != "timed out" {
		t.Fatalf("cancel reason = %q, want \"timed out\"", got)
	}
	if st := srv.pool.Stats(); st.Cancelled != 1 {
		t.Fatalf("cancelled = %d, want 1", st.Cancelled)
	}
}

func TestCancelEndpoint(t *testing.T) {
	started := make(chan struct{})
	srv := newTestServer(PoolConfig{Workers: 1, QueueDepth: 4}, nil,
		func(ctx context.Context, job *Job) ([]byte, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	_, view := postJob(t, ts, `{"experiment": "E1a"}`)
	<-started
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+view.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	waitStatus(t, srv.pool, view.ID, StatusCancelled)
	// The result endpoint reports the cancellation rather than serving bytes.
	code, _ := getResult(t, ts, view.ID)
	if code != http.StatusConflict {
		t.Fatalf("result of cancelled job: status %d, want 409", code)
	}
}

func TestPanicIsolation(t *testing.T) {
	srv := newTestServer(PoolConfig{Workers: 1, QueueDepth: 4}, nil,
		func(ctx context.Context, job *Job) ([]byte, error) {
			panic("simulated machine exploded")
		})
	defer srv.Shutdown(context.Background())

	job, err := srv.pool.Submit(JobRequest{Experiment: "E1a"}, "k-panic")
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, srv.pool, job.ID, StatusFailed)
	if !strings.Contains(job.View().Error, "simulated machine exploded") {
		t.Fatalf("error = %q", job.View().Error)
	}
	// The worker survived: the pool still runs jobs.
	ok, err := srv.pool.Submit(JobRequest{Experiment: "E1a"}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, srv.pool, ok.ID, StatusFailed) // same panicking runner, but it RAN
	if st := srv.pool.Stats(); st.Panics != 2 {
		t.Fatalf("panics = %d, want 2", st.Panics)
	}
}

// --- graceful shutdown ---

// TestShutdownDrains: queued jobs still run to completion during a
// graceful shutdown; new submissions are refused with 503.
func TestShutdownDrains(t *testing.T) {
	var ran atomic.Int32
	srv := newTestServer(PoolConfig{Workers: 1, QueueDepth: 8}, nil,
		func(ctx context.Context, job *Job) ([]byte, error) {
			time.Sleep(20 * time.Millisecond)
			ran.Add(1)
			return []byte("{}\n"), nil
		})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := srv.pool.Submit(JobRequest{Experiment: "E1a"}, fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("drain ran %d jobs, want 3", got)
	}
	for _, j := range jobs {
		if j.Status() != StatusDone {
			t.Fatalf("job %s = %s after drain, want done", j.ID, j.Status())
		}
	}
	if code, _ := postJob(t, ts, `{"experiment": "E1a"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: status %d, want 503", code)
	}
}

// TestShutdownDeadline: when the drain budget expires, running jobs are
// cancelled rather than held forever.
func TestShutdownDeadline(t *testing.T) {
	srv := newTestServer(PoolConfig{Workers: 1, QueueDepth: 4}, nil,
		func(ctx context.Context, job *Job) ([]byte, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		})
	job, err := srv.pool.Submit(JobRequest{Experiment: "E1a"}, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("shutdown reported clean drain despite a stuck job")
	}
	waitStatus(t, srv.pool, job.ID, StatusCancelled)
}

// --- streaming and API surface ---

func TestStreamNDJSON(t *testing.T) {
	srv := newTestServer(PoolConfig{Workers: 1, QueueDepth: 4}, nil,
		func(ctx context.Context, job *Job) ([]byte, error) {
			job.progress("point 1 done")
			job.progress("point 2 done")
			return []byte("{}\n"), nil
		})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	_, view := postJob(t, ts, `{"experiment": "E1a"}`)
	waitStatus(t, srv.pool, view.ID, StatusDone)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var kinds []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		kinds = append(kinds, ev.Event)
	}
	want := []string{"queued", "started", "progress", "progress", "done"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("event stream = %v, want %v", kinds, want)
	}
}

// TestStreamClientDisconnectDoesNotCancelJob: a follower dropping the
// NDJSON stream mid-job is a spectator leaving, not a cancellation —
// the job runs to completion and its result stays fetchable.
func TestStreamClientDisconnectDoesNotCancelJob(t *testing.T) {
	release := make(chan struct{})
	srv := newTestServer(PoolConfig{Workers: 1, QueueDepth: 4}, nil,
		func(ctx context.Context, job *Job) ([]byte, error) {
			job.progress("point 1 done")
			select {
			case <-release:
				return []byte(`{"ok": true}` + "\n"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	_, view := postJob(t, ts, `{"experiment": "E1a"}`)
	for deadline := time.Now().Add(10 * time.Second); ; {
		if srv.pool.Job(view.ID).Status() == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", srv.pool.Job(view.ID).Status())
		}
		time.Sleep(time.Millisecond)
	}

	// Follow the stream just long enough to prove it is live, then hang
	// up mid-job without reading to the end.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("first stream line: %v", err)
	}
	var ev Event
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatalf("bad NDJSON line %q: %v", line, err)
	}
	resp.Body.Close() // abrupt client disconnect

	// The job must neither cancel nor wedge: let it finish and fetch
	// the result as if the disconnect never happened.
	close(release)
	waitStatus(t, srv.pool, view.ID, StatusDone)
	res, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, _ := io.ReadAll(res.Body)
	if res.StatusCode != http.StatusOK || string(body) != `{"ok": true}`+"\n" {
		t.Fatalf("result after stream disconnect: status %d, body %q", res.StatusCode, body)
	}
	// A fresh follower still sees the full event history, done included.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp2.Body)
	if !strings.Contains(buf.String(), `"done"`) {
		t.Fatalf("replayed stream lacks the done event:\n%s", buf.String())
	}
}

func TestValidateRejectsBadRequests(t *testing.T) {
	srv := newTestServer(PoolConfig{}, nil, func(ctx context.Context, job *Job) ([]byte, error) {
		return []byte("{}\n"), nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	for _, body := range []string{
		`{"experiment": "no-such-figure"}`,
		`{"kind": "experiment"}`,
		`{"kind": "explore"}`,
		`{"kind": "teleport"}`,
		`{"unknown_field": 1}`,
		`not json`,
	} {
		if code, _ := postJob(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, code)
		}
	}
	// Near-miss experiment names come back with a suggestion.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment": "figure1"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	if !strings.Contains(eb.Error, "did you mean") {
		t.Fatalf("no suggestion in %q", eb.Error)
	}
}

func TestExperimentsAndStatsEndpoints(t *testing.T) {
	srv := newTestServer(PoolConfig{}, NewCache(4, nil), func(ctx context.Context, job *Job) ([]byte, error) {
		return []byte("{}\n"), nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var infos []ExperimentInfo
	json.NewDecoder(resp.Body).Decode(&infos)
	resp.Body.Close()
	if len(infos) == 0 || infos[0].ID == "" {
		t.Fatalf("experiments = %+v", infos)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsJSON
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if stats.Pool.Workers == 0 || stats.Cache == nil {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestExploreKeyOnlyWhenDeterministic(t *testing.T) {
	det := JobRequest{Explore: &ExploreSpec{MaxRuns: 5}}
	key, err := validate(det)
	if err != nil || key == "" {
		t.Fatalf("deterministic campaign: key %q, err %v", key, err)
	}
	for _, sp := range []*ExploreSpec{
		{MaxRuns: 5, Workers: 2}, // racing workers
		{MaxRuns: 0},             // unbounded
		{MaxRuns: 5, WallMs: 10}, // wall-clock budget
	} {
		key, err := validate(JobRequest{Explore: sp})
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			t.Fatalf("%+v should not be content-addressable", sp)
		}
	}
}

// TestExploreJobRuns drives a real (tiny) fuzz campaign through the
// service and checks the cached rerun is byte-identical.
func TestExploreJobRuns(t *testing.T) {
	srv := NewServer(PoolConfig{Workers: 1, QueueDepth: 4}, NewCache(4, nil))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	body := `{"explore": {"config": {"structure": "list", "scheme": "epoch", "measure_cycles": 200000}, "max_runs": 3}}`
	code, view := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if view.Key == "" {
		t.Fatal("deterministic campaign submitted without a content key")
	}
	waitStatus(t, srv.pool, view.ID, StatusDone)
	_, cold := getResult(t, ts, view.ID)
	var doc ExploreResultJSON
	if err := json.Unmarshal(cold, &doc); err != nil || doc.Runs != 3 {
		t.Fatalf("doc = %+v, err %v", doc, err)
	}
	code, hit := postJob(t, ts, body)
	if code != http.StatusOK || !hit.Cached {
		t.Fatalf("rerun: status %d cached %v", code, hit.Cached)
	}
	_, warm := getResult(t, ts, hit.ID)
	if !bytes.Equal(cold, warm) {
		t.Fatal("cached campaign bytes differ from cold run")
	}
}
