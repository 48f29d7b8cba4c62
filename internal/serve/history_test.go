package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stacktrack/internal/bench"
	"stacktrack/internal/store"
)

const quickBody = `{"experiment": "E1a", "options": {"threads": [2], "measure_ms": 0.5, "warmup_ms": 0.2}}`

// newArchivingServer starts a server whose cache sits over a store in
// dir, as stserved -store-dir wires it. stop shuts it down and releases
// the store; it also runs at cleanup, and is safe to call twice.
func newArchivingServer(t *testing.T, dir string) (srv *Server, st *store.Store, ts *httptest.Server, stop func()) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv = NewServer(PoolConfig{Workers: 2, QueueDepth: 8}, NewCache(8, st))
	srv.SetStore(st)
	ts = httptest.NewServer(srv.Handler())
	stop = func() {
		ts.Close()
		srv.Shutdown(context.Background())
		st.Close()
	}
	t.Cleanup(stop)
	return srv, st, ts, stop
}

// TestArchiveOnCompletion: a completed job's document lands in the
// store byte-identical to the served response, with the job's content
// key and derived metadata; a cache hit on resubmission does not
// archive a duplicate.
func TestArchiveOnCompletion(t *testing.T) {
	_, st, ts, _ := newArchivingServer(t, t.TempDir())

	code, view := postJob(t, ts, quickBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	j := waitDone(t, ts, view.ID)
	code, served := getResult(t, ts, view.ID)
	if code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}

	stats := st.Stats()
	if stats.Records != 1 {
		t.Fatalf("store records = %d, want 1", stats.Records)
	}
	recs := st.Records(store.Query{})
	m := recs[0]
	if m.Key == "" || m.Key != j.Key {
		t.Fatalf("archived key = %q, job key = %q", m.Key, j.Key)
	}
	if m.Source != "stserved" || m.Experiment != "E1a" || m.Schema != bench.SchemaVersion {
		t.Fatalf("archived meta = %+v", m)
	}
	if m.DurationMs <= 0 {
		t.Fatalf("archived duration = %g", m.DurationMs)
	}
	_, payload, err := st.Get(m.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, served) {
		t.Fatal("archived bytes differ from the served response")
	}

	// Resubmit: cache hit, no recomputation, no second record.
	code, view2 := postJob(t, ts, quickBody)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("resubmit = %d", code)
	}
	waitDone(t, ts, view2.ID)
	if got := st.Stats().Records; got != 1 {
		t.Fatalf("cache hit archived a duplicate: %d records", got)
	}
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	for start := time.Now(); ; time.Sleep(2 * time.Millisecond) {
		if time.Since(start) > 30*time.Second {
			t.Fatalf("job %s did not finish", id)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch view.Status {
		case StatusDone:
			return view
		case StatusFailed, StatusCancelled:
			t.Fatalf("job %s ended %s: %s", id, view.Status, view.Error)
		}
	}
}

// TestStoreTierSurvivesRestart: the result store is the cache's
// persistent tier. A result archived by one server is served by a
// fresh server on the same directory as a cached hit, byte-identical
// and without simulating or archiving again; a record that fails its
// CRC when read is a miss that recomputes and archives a fresh record.
func TestStoreTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	// Server one computes and archives.
	_, st1, ts1, stop1 := newArchivingServer(t, dir)
	_, view := postJob(t, ts1, quickBody)
	waitDone(t, ts1, view.ID)
	_, cold := getResult(t, ts1, view.ID)
	if got := st1.Stats().Records; got != 1 {
		t.Fatalf("server one archived %d records, want 1", got)
	}
	stop1()

	// Server two serves it from the store.
	srv2, st2, ts2, stop2 := newArchivingServer(t, dir)
	code, view2 := postJob(t, ts2, quickBody)
	if code != http.StatusOK || !view2.Cached {
		t.Fatalf("after restart: code %d, cached %v; want 200 cached", code, view2.Cached)
	}
	_, warm := getResult(t, ts2, view2.ID)
	if !bytes.Equal(warm, cold) {
		t.Fatal("store-tier hit differs from the cold run's bytes")
	}
	if got := srv2.Pool().Stats().Completed; got != 0 {
		t.Fatalf("store-tier hit ran %d simulations", got)
	}
	if got := st2.Stats().Records; got != 1 {
		t.Fatalf("store-tier hit archived again: %d records", got)
	}
	if cs := srv2.cache.Stats(); cs.DiskHits != 1 || cs.DiskErrors != 0 {
		t.Fatalf("cache stats = %+v, want 1 store hit", cs)
	}
	stop2()

	// Server three opens the store (the scan finds the record intact),
	// then a byte of the record's payload rots on disk.
	srv3, st3, ts3, _ := newArchivingServer(t, dir)
	seg := filepath.Join(dir, "seg-00000001.log")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] ^= 0xff // inside the payload, which ends the only frame
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	code, view3 := postJob(t, ts3, quickBody)
	if code != http.StatusAccepted || view3.Cached {
		t.Fatalf("corrupt record: code %d, cached %v; want 202 recompute", code, view3.Cached)
	}
	waitDone(t, ts3, view3.ID)
	_, fresh := getResult(t, ts3, view3.ID)
	if !bytes.Equal(fresh, cold) {
		t.Fatal("recompute differs from the cold run's bytes")
	}
	if cs := srv3.cache.Stats(); cs.DiskErrors != 1 || cs.DiskHits != 0 {
		t.Fatalf("cache stats = %+v, want 1 disk error and no store hit", cs)
	}
	got, ok, err := st3.Lookup(view3.Key)
	if !ok || err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("Lookup after recompute: ok=%v err=%v; want the fresh record", ok, err)
	}
	if n := st3.Stats().Records; n != 2 {
		t.Fatalf("records = %d, want 2", n)
	}
}

// TestHealthzReportsSchemaAndStore: the health document carries the
// result schema version always, and store stats when one is attached.
func TestHealthzReportsSchemaAndStore(t *testing.T) {
	_, st, ts, _ := newArchivingServer(t, t.TempDir())
	_ = st

	var doc HealthJSON
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" || doc.Schema != bench.SchemaVersion || doc.Store == nil {
		t.Fatalf("healthz = %+v", doc)
	}

	// Without a store: schema still present, store block absent.
	srv2 := newTestServer(PoolConfig{}, nil, func(ctx context.Context, job *Job) ([]byte, error) {
		return []byte("{}\n"), nil
	})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Shutdown(context.Background())
	resp2, err := http.Get(ts2.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var doc2 HealthJSON
	if err := json.NewDecoder(resp2.Body).Decode(&doc2); err != nil {
		t.Fatal(err)
	}
	if doc2.Schema != bench.SchemaVersion || doc2.Store != nil {
		t.Fatalf("storeless healthz = %+v", doc2)
	}
}

// TestHistoryAndTrendsEndpoints: archived runs are queryable over HTTP
// with the documented filters; servers without a store answer 404.
func TestHistoryAndTrendsEndpoints(t *testing.T) {
	_, _, ts, _ := newArchivingServer(t, t.TempDir())

	// Two archived runs of the same config: the second submission hits
	// the cache, so force recomputation with distinct seeds.
	for _, body := range []string{
		`{"experiment": "E1a", "options": {"threads": [2], "measure_ms": 0.5, "warmup_ms": 0.2, "seed": 1}}`,
		`{"experiment": "E1a", "options": {"threads": [2], "measure_ms": 0.5, "warmup_ms": 0.2, "seed": 2}}`,
	} {
		_, view := postJob(t, ts, body)
		waitDone(t, ts, view.ID)
	}

	var entries []store.HistoryEntry
	getJSON(t, ts, "/v1/history?experiment=E1a", &entries)
	if len(entries) != 2 {
		t.Fatalf("history entries = %d", len(entries))
	}
	for _, e := range entries {
		if len(e.Points) == 0 || e.Meta.Experiment != "E1a" {
			t.Fatalf("entry = %+v", e)
		}
	}
	var none []store.HistoryEntry
	getJSON(t, ts, "/v1/history?experiment=E99", &none)
	if len(none) != 0 {
		t.Fatalf("phantom history: %+v", none)
	}

	var trends []store.TrendSeries
	getJSON(t, ts, "/v1/trends?experiment=E1a&threads=2", &trends)
	if len(trends) == 0 {
		t.Fatal("no trend series")
	}
	for _, tr := range trends {
		if len(tr.Points) != 2 {
			t.Fatalf("%s: %d points, want 2", tr.Metric, len(tr.Points))
		}
	}

	// Bad parameters are 400s.
	for _, path := range []string{"/v1/history?threads=zero", "/v1/trends?last=-1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400", path, resp.StatusCode)
		}
	}

	// No store attached: 404, so callers can tell "no archive" from
	// "empty archive".
	srv2 := newTestServer(PoolConfig{}, nil, func(ctx context.Context, job *Job) ([]byte, error) {
		return []byte("{}\n"), nil
	})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Shutdown(context.Background())
	for _, path := range []string{"/v1/history", "/v1/trends"} {
		resp, err := http.Get(ts2.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("storeless %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

// TestExploreJobsAreNotArchived: explore campaign results are not
// ResultsJSON documents; the archive skips them rather than refusing
// the job, so a deterministic campaign is cached in memory only.
func TestExploreJobsAreNotArchived(t *testing.T) {
	srv, st, ts, _ := newArchivingServer(t, t.TempDir())
	body := `{"explore": {"config": {"structure": "list", "scheme": "epoch", "measure_cycles": 200000}, "max_runs": 2}}`
	code, view := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitDone(t, ts, view.ID)
	if got := st.Stats().Records; got != 0 {
		t.Fatalf("explore result archived: %d records", got)
	}
	code, view2 := postJob(t, ts, body)
	if code != http.StatusOK || !view2.Cached {
		t.Fatalf("resubmit: code %d, cached %v; want a memory hit", code, view2.Cached)
	}
	if cs := srv.cache.Stats(); cs.Hits != 1 || cs.DiskHits != 0 {
		t.Fatalf("cache stats = %+v, want 1 memory hit", cs)
	}
	if got := st.Stats().Records; got != 0 {
		t.Fatalf("explore hit archived: %d records", got)
	}
}
