package dist

// Fault injection: the coordinator against workers that drop
// connections, return 500s, push back with 429s, hang, and die outright
// mid-sweep. The invariant under every fault mix is the same — the
// merged document is byte-identical to a single-node run, or the
// coordinator fails loudly; never a silently different document.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stacktrack/internal/serve"
)

// hijackClose slams the TCP connection shut with no response — what a
// SIGKILLed worker looks like from the client side.
func hijackClose(w http.ResponseWriter) {
	h, ok := w.(http.Hijacker)
	if !ok {
		panic("test server does not support hijacking")
	}
	conn, _, err := h.Hijack()
	if err == nil {
		conn.Close()
	}
}

// faultWorker answers healthz like a healthy fleet member and mistreats
// every job request with the given handler.
func faultWorker(t *testing.T, fault http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"status": "ok"}`))
	})
	mux.HandleFunc("/", fault)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestRetriesRouteAroundFaultyWorkers: a fleet of one connection
// dropper, one 500er, and one real worker still completes the sweep,
// byte-identical, with the faulty members ejected.
func TestRetriesRouteAroundFaultyWorkers(t *testing.T) {
	dropper := faultWorker(t, func(w http.ResponseWriter, _ *http.Request) { hijackClose(w) })
	failer := faultWorker(t, func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "internal meltdown", http.StatusInternalServerError)
	})
	real := realWorker(t)

	c := newCoordinator(t, Config{
		Workers:      []string{dropper.URL, failer.URL, real.URL},
		ShardTimeout: 30 * time.Second,
		Retries:      6,
		Backoff:      5 * time.Millisecond,
		HealthEvery:  time.Hour, // ejections stand for the whole test
	})

	got, err := c.RunExperiments(context.Background(), []string{"E1a"}, tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if want := singleNodeDoc(t, []string{"E1a"}, tinySweep()); !bytes.Equal(got, want) {
		t.Fatalf("document differs from single-node under faults:\n%s\nvs\n%s", got, want)
	}

	// Both faulty workers were ejected at least once. (They may be back
	// in rotation by now — they answer healthz, so the probe loop
	// legitimately reinstates them; the next dispatch failure would
	// eject them again.)
	for _, ws := range c.Workers() {
		if ws.Base == real.URL {
			continue
		}
		if ws.Ejected == 0 {
			t.Fatalf("faulty worker %s was never ejected: %+v", ws.Base, c.Workers())
		}
	}
}

// TestBackpressure429IsAbsorbed: a worker that pushes back with 429 +
// Retry-After before accepting still completes the sweep — the
// coordinator waits it out on the same worker instead of erroring.
func TestBackpressure429IsAbsorbed(t *testing.T) {
	real := realWorker(t)
	var rejects atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && rejects.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error": "queue full"}`, http.StatusTooManyRequests)
			return
		}
		forward(t, real.URL, w, r)
	}))
	t.Cleanup(proxy.Close)

	c := newCoordinator(t, Config{
		Workers:      []string{proxy.URL},
		ShardTimeout: 30 * time.Second,
		HealthEvery:  time.Hour,
	})
	so := &serve.SweepOptions{Threads: []int{2}, MeasureMs: 0.5, WarmupMs: 0.1}
	got, err := c.RunExperiments(context.Background(), []string{"E1a"}, so)
	if err != nil {
		t.Fatal(err)
	}
	if rejects.Load() < 2 {
		t.Fatalf("proxy never pushed back (%d posts)", rejects.Load())
	}
	if want := singleNodeDoc(t, []string{"E1a"}, so); !bytes.Equal(got, want) {
		t.Fatal("document differs from single-node after 429 backpressure")
	}
}

// TestHedgingRescuesStragglers: the primary worker hangs forever; the
// hedge fires, runs the shard on the second worker, and the sweep
// completes long before the shard timeout.
func TestHedgingRescuesStragglers(t *testing.T) {
	hang := faultWorker(t, func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the server only notices a client
		// disconnect (and cancels r.Context()) once the body is read.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	real := realWorker(t)

	c := newCoordinator(t, Config{
		// The hanger is listed first: equal scores pick the first
		// worker, so the shard's primary attempt is guaranteed to hang.
		Workers:      []string{hang.URL, real.URL},
		ShardTimeout: 60 * time.Second,
		HedgeAfter:   50 * time.Millisecond,
		HealthEvery:  time.Hour,
	})
	so := &serve.SweepOptions{Threads: []int{2}, MeasureMs: 0.5, WarmupMs: 0.1}
	start := time.Now()
	got, err := c.RunExperiments(context.Background(), []string{"E1a"}, so)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("hedge did not rescue the shard: took %s", elapsed)
	}
	if want := singleNodeDoc(t, []string{"E1a"}, so); !bytes.Equal(got, want) {
		t.Fatal("hedged document differs from single-node")
	}
}

// killableWorker fronts a real worker and dies — connections dropped,
// healthz included, exactly like a SIGKILL — when its POST budget runs
// out, taking any accepted-but-unfinished jobs with it.
type killableWorker struct {
	inner     http.Handler
	killAfter int32
	posts     atomic.Int32
	killed    atomic.Bool
}

func (k *killableWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.killed.Load() {
		hijackClose(w)
		return
	}
	if r.Method == http.MethodPost && k.posts.Add(1) > k.killAfter {
		k.killed.Store(true)
		hijackClose(w)
		return
	}
	k.inner.ServeHTTP(w, r)
}

// TestWorkerKilledMidSweep is the acceptance scenario: one of two
// workers is killed partway through the sweep — after accepting work —
// and the merged document is still byte-identical to single-node,
// because the lost shards are retried on the survivor.
func TestWorkerKilledMidSweep(t *testing.T) {
	survivorTS := realWorker(t)

	victimSrv := serve.NewServer(serve.PoolConfig{Workers: 2, QueueDepth: 16}, serve.NewCache(64, nil))
	victim := &killableWorker{inner: victimSrv.Handler(), killAfter: 1}
	victimTS := httptest.NewServer(victim)
	t.Cleanup(func() {
		victimTS.Close()
		victimSrv.Shutdown(context.Background())
	})

	c := newCoordinator(t, Config{
		// Victim listed first so it is guaranteed to receive work
		// before dying.
		Workers:      []string{victimTS.URL, survivorTS.URL},
		ShardTimeout: 30 * time.Second,
		Retries:      6,
		Backoff:      5 * time.Millisecond,
		HealthEvery:  time.Hour,
	})

	got, err := c.RunExperiments(context.Background(), []string{"E1a"}, tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if !victim.killed.Load() {
		t.Fatal("victim was never killed; the test proved nothing")
	}
	if want := singleNodeDoc(t, []string{"E1a"}, tinySweep()); !bytes.Equal(got, want) {
		t.Fatalf("document differs from single-node after mid-sweep kill:\n%s\nvs\n%s", got, want)
	}
	for _, ws := range c.Workers() {
		if ws.Base == victimTS.URL && ws.Healthy {
			t.Fatalf("dead victim still marked healthy: %+v", c.Workers())
		}
	}
}

// TestHealthEjectionAndReinstatement: a worker that stops answering
// healthz leaves the rotation and comes back when it recovers.
func TestHealthEjectionAndReinstatement(t *testing.T) {
	var down atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			hijackClose(w)
			return
		}
		if r.URL.Path == "/v1/healthz" {
			w.Write([]byte(`{"status": "ok"}`))
			return
		}
		http.NotFound(w, r)
	}))
	t.Cleanup(flaky.Close)

	c := newCoordinator(t, Config{
		Workers:     []string{flaky.URL},
		HealthEvery: 20 * time.Millisecond,
	})

	waitState := func(wantHealthy bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if c.Workers()[0].Healthy == wantHealthy {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("worker never became healthy=%v: %+v", wantHealthy, c.Workers())
	}

	waitState(true)
	down.Store(true)
	waitState(false)
	down.Store(false)
	waitState(true)
	if c.Workers()[0].Ejected == 0 {
		t.Fatal("ejection was not counted")
	}
}

// forward proxies one request to a backing worker (naive, good enough
// for a test harness: re-issue the request and copy the response).
func forward(t *testing.T, base string, w http.ResponseWriter, r *http.Request) {
	t.Helper()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.String(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			w.Write(buf[:n])
		}
		if err != nil {
			return
		}
	}
}

// TestSchemaMismatchHardEjection: a worker advertising a different
// result schema is ejected and — unlike a merely unreachable worker —
// never resurrected by the all-ejected dispatch fallback. A fleet with
// one compatible worker still completes; a fleet with none fails
// permanently instead of retrying.
func TestSchemaMismatchHardEjection(t *testing.T) {
	alien := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/healthz":
			w.Write([]byte(`{"status": "ok", "schema": 999}`))
		case "/v1/stats":
			http.NotFound(w, r) // health probe ride-along, not job traffic
		default:
			t.Errorf("incompatible worker received %s %s", r.Method, r.URL.Path)
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(alien.Close)
	good := realWorker(t)

	c := newCoordinator(t, Config{
		Workers:      []string{alien.URL, good.URL},
		ShardTimeout: 30 * time.Second,
		HealthEvery:  20 * time.Millisecond,
	})
	waitIncompatible := func(c *Coordinator, idx int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if c.Workers()[idx].Incompatible {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("worker never marked incompatible: %+v", c.Workers())
	}
	waitIncompatible(c, 0)

	got, err := c.RunExperiments(context.Background(), []string{"E1a"}, tinySweep())
	if err != nil {
		t.Fatalf("sweep with one compatible worker: %v", err)
	}
	want := singleNodeDoc(t, []string{"E1a"}, tinySweep())
	if !bytes.Equal(got, want) {
		t.Fatal("merged document differs from single-node reference")
	}
	ws := c.Workers()
	if !ws[0].Incompatible || ws[0].Schema != 999 || ws[0].Healthy {
		t.Fatalf("alien worker state = %+v", ws[0])
	}
	if ws[1].Incompatible {
		t.Fatalf("compatible worker state = %+v", ws[1])
	}

	// All workers incompatible: fail fast, not a retry storm.
	c2 := newCoordinator(t, Config{
		Workers:      []string{alien.URL},
		ShardTimeout: 5 * time.Second,
		HealthEvery:  20 * time.Millisecond,
		Retries:      10,
		Backoff:      time.Second,
	})
	waitIncompatible(c2, 0)
	start := time.Now()
	if _, err := c2.RunExperiments(context.Background(), []string{"E1a"}, tinySweep()); err == nil {
		t.Fatal("all-incompatible fleet should fail")
	} else if !strings.Contains(err.Error(), "schema") {
		t.Fatalf("error does not name the schema mismatch: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("all-incompatible failure took %v — retried instead of failing fast", elapsed)
	}
}
