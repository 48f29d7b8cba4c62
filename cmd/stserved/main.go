// Command stserved serves simulations over HTTP: experiment sweeps and
// fuzz campaigns submitted as JSON jobs, executed on a bounded worker
// pool, with results content-addressed and cached — repeated
// submissions of the same (config, seed, schema version) are served the
// exact bytes the first run produced, without simulating again.
//
//	stserved -addr :8321 -workers 4 -queue 32 -cache 256 -store-dir /var/lib/st
//
// API (see internal/serve):
//
//	POST   /v1/jobs           submit {"experiment": "E1a", "options": {"quick": true}}
//	                          or {"explore": {"config": {...}, "max_runs": 50}}
//	GET    /v1/jobs/{id}      status; /result exact result bytes; /stream NDJSON
//	DELETE /v1/jobs/{id}      cooperative cancel
//	GET    /v1/experiments    inventory; /v1/stats counters; /v1/healthz liveness
//	GET    /v1/history        archived runs (needs -store-dir); /v1/trends metric series
//
// With -store-dir every completed result document is archived to a
// crash-safe append-only store (internal/store), building the history
// that sthist's trend gates query. The store is also the cache's
// persistent tier: a result archived by an earlier process is served
// as a cached hit after a restart. The store is single-writer, so stop
// the server before running sthist on the same directory.
//
// A full queue answers 429 with Retry-After rather than blocking.
// SIGINT/SIGTERM shut down gracefully: the listener closes, queued and
// running jobs drain (bounded by -drain), then the process exits.
//
// Exit status: 0 on clean shutdown, 1 on listen/serve failure, 2 on
// configuration errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"stacktrack/internal/cli"
	"stacktrack/internal/serve"
	"stacktrack/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8321", "listen address")
		workers  = flag.Int("workers", 2, "concurrent simulation workers")
		queue    = flag.Int("queue", 16, "max queued jobs before 429")
		cacheN   = flag.Int("cache", 256, "in-memory result cache entries (0 = off)")
		timeout  = flag.Duration("timeout", 0, "default per-job timeout (0 = none)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		storeDir = flag.String("store-dir", "", "result-history archive directory, also the cache's persistent tier (empty = no archive)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "stserved: unexpected arguments: %v\n", flag.Args())
		os.Exit(cli.ExitUsage)
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "stserved: open result store: %v\n", err)
			os.Exit(cli.ExitFailure)
		}
		defer st.Close()
		s := st.Stats()
		fmt.Fprintf(os.Stderr, "stserved: result store %s (%d records, %d segments, last seq %d)\n",
			*storeDir, s.Records, s.Segments, s.LastSeq)
	}
	var cache *serve.Cache
	if *cacheN > 0 || st != nil {
		cache = serve.NewCache(*cacheN, st)
	}
	srv := serve.NewServer(serve.PoolConfig{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
	}, cache)
	srv.SetStore(st)

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, cancel := cli.SignalContext()
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "stserved: listening on %s (%d workers, queue %d)\n",
		*addr, *workers, *queue)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "stserved: %v\n", err)
		os.Exit(cli.ExitFailure)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "stserved: shutting down; draining jobs")
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drain)
	defer cancelDrain()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "stserved: http shutdown: %v\n", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "stserved: drain incomplete: %v\n", err)
		os.Exit(cli.ExitFailure)
	}
	fmt.Fprintln(os.Stderr, "stserved: drained; bye")
}
