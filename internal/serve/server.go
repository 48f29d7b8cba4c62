package serve

// The HTTP face of the simulation service: a small versioned JSON API
// over the pool and cache. Routing uses Go 1.22 method+wildcard
// patterns; responses are indented JSON except for result documents,
// which are served as the exact stored bytes — a cache hit is
// byte-identical to the cold computation that produced it.
//
//	POST   /v1/jobs           submit (202 accepted, 200 cached/deduped,
//	                          429 queue full, 503 shutting down)
//	GET    /v1/jobs/{id}      job status
//	GET    /v1/jobs/{id}/result  stored result bytes (202 while running)
//	GET    /v1/jobs/{id}/stream  NDJSON event stream, follows until done
//	DELETE /v1/jobs/{id}      cooperative cancel
//	GET    /v1/experiments    registered experiment inventory
//	GET    /v1/stats          pool + cache counters
//	GET    /v1/healthz        liveness + result schema version + store stats
//	GET    /v1/history        archived runs (result store; see internal/store)
//	GET    /v1/trends         per-metric trend series across archived runs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"stacktrack/internal/bench"
	"stacktrack/internal/cli"
	"stacktrack/internal/explore"
	"stacktrack/internal/store"
)

// maxBodyBytes bounds a job request body; real requests are tiny.
const maxBodyBytes = 1 << 20

// Server wires the pool, cache, result archive, and HTTP handlers
// together.
type Server struct {
	pool  *Pool
	cache *Cache
	store *store.Store
	mux   *http.ServeMux
}

// NewServer builds a server with the real simulation executor.
// cache may be nil to disable result reuse.
func NewServer(cfg PoolConfig, cache *Cache) *Server {
	s := &Server{cache: cache}
	s.pool = NewPool(cfg, cache, s.runJob)
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// SetStore attaches the result archive: every completed simulation is
// appended, and history/trend queries are served from it. Must be
// called before the server starts handling requests. For archived
// results to be served again, build the cache over the same store
// (NewCache(n, st)).
func (s *Server) SetStore(st *store.Store) { s.store = st }

// runJob is the pool's Runner: execute, then archive the completed
// document. Archival is strictly after the fact — it can neither change
// nor fail the job.
func (s *Server) runJob(ctx context.Context, job *Job) ([]byte, error) {
	start := time.Now()
	b, err := execute(ctx, job)
	if err == nil {
		s.archive(job.Key, b, time.Since(start))
	}
	return b, err
}

// archive appends one completed result document to the store. Documents
// the archive cannot describe (explore campaign results — no points, no
// trend value) are skipped; so is everything when no store is attached.
func (s *Server) archive(key string, payload []byte, dur time.Duration) {
	st := s.store
	if st == nil {
		return
	}
	meta, err := store.DescribePayload(payload)
	if err != nil {
		return
	}
	meta.Key = key
	meta.Source = "stserved"
	meta.DurationMs = float64(dur.Microseconds()) / 1000
	p := cli.Provenance()
	meta.Commit = p.Commit
	meta.GoVersion = p.GoVersion
	st.Append(meta, payload)
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/history", s.handleHistory)
	s.mux.HandleFunc("GET /v1/trends", s.handleTrends)
}

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the pool (see Pool.Shutdown).
func (s *Server) Shutdown(ctx context.Context) error { return s.pool.Shutdown(ctx) }

// Pool exposes the underlying pool (tests, stats).
func (s *Server) Pool() *Pool { return s.pool }

// writeJSON writes an indented JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// validate checks a request and computes its content address ("" when
// the work is not content-addressable and must always recompute).
func validate(req JobRequest) (key string, err error) {
	switch req.kind() {
	case KindExperiment:
		e, err := findExperiment(req)
		if err != nil {
			return "", err
		}
		return bench.ExperimentKey(e, req.Options.BenchOptions())
	case KindPoint:
		e, err := findExperiment(req)
		if err != nil {
			return "", err
		}
		if len(req.Shard) == 0 {
			return "", errors.New("point jobs need a non-empty \"shard\"")
		}
		return bench.ShardKey(e, req.Options.BenchOptions(), req.Shard)
	case KindExplore:
		if req.Explore == nil {
			return "", errors.New("explore jobs need an \"explore\" spec")
		}
		if _, err := explore.NewStrategy(req.Explore.Config.WithDefaults()); err != nil {
			return "", err
		}
		if !req.Explore.Deterministic() {
			// Racing workers or wall-clock budgets make the outcome a
			// function of the host, not the spec: always recompute.
			return "", nil
		}
		return bench.CanonicalKey("explore.Campaign", struct {
			Schema  int
			Config  explore.RunConfig
			MaxRuns int
		}{bench.SchemaVersion, req.Explore.Config.WithDefaults(), req.Explore.MaxRuns})
	default:
		return "", fmt.Errorf("unknown job kind %q", req.Kind)
	}
}

// findExperiment resolves the request's experiment name, suggesting
// near-misses on failure.
func findExperiment(req JobRequest) (*bench.Experiment, error) {
	if req.Experiment == "" {
		return nil, errors.New("experiment jobs need an \"experiment\" name")
	}
	e := bench.FindExperiment(req.Experiment)
	if e == nil {
		msg := fmt.Sprintf("unknown experiment %q", req.Experiment)
		if sug := bench.SuggestExperiments(req.Experiment); len(sug) > 0 {
			msg += "; did you mean " + sug[0].Name
		}
		return nil, errors.New(msg)
	}
	return e, nil
}

// BenchOptions maps the wire options onto bench.Options (host-side
// fields — Progress, Collect, Ctx — are installed by the executor).
func (so *SweepOptions) BenchOptions() bench.Options {
	var o bench.Options
	if so == nil {
		return o
	}
	if so.Quick {
		o = bench.QuickOptions()
	}
	if len(so.Threads) > 0 {
		o.Threads = so.Threads
	}
	if so.MeasureMs > 0 {
		o.MeasureMs = so.MeasureMs
	}
	if so.WarmupMs > 0 {
		o.WarmupMs = so.WarmupMs
	}
	if so.Seed != 0 {
		o.Seed = so.Seed
	}
	o.Profile = so.Profile
	o.Sanitize = so.Sanitize
	return o
}

// execute is the production Runner: it turns one job into canonical
// result bytes. Deterministic by construction — nothing host-dependent
// (wall times, worker counts) lands in the cacheable document.
func execute(ctx context.Context, job *Job) ([]byte, error) {
	req := job.request()
	switch req.kind() {
	case KindExperiment:
		e := bench.FindExperiment(req.Experiment)
		if e == nil {
			return nil, fmt.Errorf("unknown experiment %q", req.Experiment)
		}
		o := req.Options.BenchOptions()
		o.Ctx = ctx
		o.Progress = &progressWriter{job: job}
		doc, _, err := bench.RunExperimentJSON(e, o)
		if err != nil {
			return nil, err
		}
		return marshalResult(&bench.ResultsJSON{
			Schema:      bench.SchemaVersion,
			Experiments: []*bench.ExperimentJSON{doc},
		})
	case KindPoint:
		e := bench.FindExperiment(req.Experiment)
		if e == nil {
			return nil, fmt.Errorf("unknown experiment %q", req.Experiment)
		}
		o := req.Options.BenchOptions()
		o.Ctx = ctx
		o.Progress = &progressWriter{job: job}
		doc, err := bench.RunExperimentShard(e, o, req.Shard)
		if err != nil {
			return nil, err
		}
		return marshalResult(&bench.ResultsJSON{
			Schema:      bench.SchemaVersion,
			Experiments: []*bench.ExperimentJSON{doc},
		})
	case KindExplore:
		sp := req.Explore
		res, err := explore.ExploreResumable(ctx, sp.Config, sp.Workers,
			explore.Budget{Wall: wallBudget(sp), MaxRuns: sp.MaxRuns}, nil)
		if err != nil {
			return nil, err
		}
		// A cancelled campaign returns normally with partial runs; the
		// job must land in cancelled, not done-with-partial-bytes.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return marshalResult(exploreDoc(sp, res))
	default:
		return nil, fmt.Errorf("unknown job kind %q", req.Kind)
	}
}

// request returns the job's request (jobs are immutable after Submit).
func (j *Job) request() JobRequest { return j.req }

// ExploreResultJSON is the versioned document an explore job produces.
// Elapsed wall time is deliberately absent: the document must be a pure
// function of the spec so cached bytes equal recomputed bytes.
type ExploreResultJSON struct {
	Schema  int               `json:"schema"`
	Kind    string            `json:"kind"`
	Config  explore.RunConfig `json:"config"`
	Runs    int               `json:"runs"`
	Failed  bool              `json:"failed"`
	Seed    uint64            `json:"seed,omitempty"`
	Verdict string            `json:"verdict,omitempty"`
}

func exploreDoc(sp *ExploreSpec, res *explore.CampaignResult) *ExploreResultJSON {
	doc := &ExploreResultJSON{
		Schema: bench.SchemaVersion,
		Kind:   KindExplore,
		Config: sp.Config.WithDefaults(),
		Runs:   res.Runs,
	}
	if res.Failure != nil {
		doc.Failed = true
		doc.Seed = res.Failure.Seed
		doc.Verdict = res.Failure.Verdict.String()
	}
	return doc
}

func wallBudget(sp *ExploreSpec) time.Duration {
	return time.Duration(sp.WallMs) * time.Millisecond
}

func marshalResult(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// decodeJobRequest reads one /v1/jobs body strictly: unknown fields
// are errors.
func decodeJobRequest(body io.Reader) (JobRequest, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req JobRequest
	err := dec.Decode(&req)
	return req, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeJobRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	key, err := validate(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, err := s.pool.Submit(req, key)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	status := http.StatusAccepted
	if job.Status() == StatusDone {
		status = http.StatusOK // cache hit: already complete
	}
	writeJSON(w, status, job.View())
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	job := s.pool.Job(id)
	if job == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	}
	return job
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if job := s.lookup(w, r); job != nil {
		writeJSON(w, http.StatusOK, job.View())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	switch job.Status() {
	case StatusDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(job.Result()) // exact stored bytes, never re-marshaled
	case StatusFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %s", job.View().Error)
	case StatusCancelled:
		writeError(w, http.StatusConflict, "job cancelled: %s", job.View().Error)
	default:
		writeJSON(w, http.StatusAccepted, job.View())
	}
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		events, changed := job.eventsSince(next)
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		next += len(events)
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-job.Done():
			// Drain anything appended between the last read and Done.
			if events, _ := job.eventsSince(next); len(events) > 0 {
				continue
			}
			return
		default:
		}
		select {
		case <-changed:
		case <-job.Done():
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusAccepted, job.View())
}

// ExperimentInfo is one GET /v1/experiments entry.
type ExperimentInfo struct {
	Name  string `json:"name"`
	ID    string `json:"id"`
	Alias string `json:"alias,omitempty"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	out := make([]ExperimentInfo, 0, len(bench.Experiments))
	for i := range bench.Experiments {
		e := &bench.Experiments[i]
		out = append(out, ExperimentInfo{Name: e.Name, ID: e.ID, Alias: e.Alias})
	}
	writeJSON(w, http.StatusOK, out)
}

// StatsJSON is the GET /v1/stats document.
type StatsJSON struct {
	Pool  PoolStats   `json:"pool"`
	Cache *CacheStats `json:"cache,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	doc := StatsJSON{Pool: s.pool.Stats()}
	if s.cache != nil {
		st := s.cache.Stats()
		doc.Cache = &st
	}
	writeJSON(w, http.StatusOK, doc)
}
