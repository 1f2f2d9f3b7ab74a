// Command rtkserve serves simulations as a service: a bounded HTTP/JSON
// job server over the unified run façade. Submit a run.Spec, poll the job,
// download its artifacts — the run is built by exactly the code path the
// CLIs use, so a fixed-seed Spec yields byte-identical artifacts over HTTP
// and on the command line.
//
// Single replica (the default):
//
//	rtkserve -addr :8080 -workers 4 -queue 28
//
// In-process fleet — N shards behind one listener, submissions routed by
// Spec content hash so each shard's result cache works fleet-wide:
//
//	rtkserve -addr :8080 -shards 4 -workers 2
//
// Router over remote replicas (each started with the matching
// -shard-name):
//
//	rtkserve -addr :8081 -shard-name s0 ...
//	rtkserve -addr :8082 -shard-name s1 ...
//	rtkserve -addr :8080 -router -backends http://h1:8081,http://h2:8082
//
//	curl -X POST localhost:8080/api/v1/jobs -d '{"dur":"250ms","seed":42,
//	    "artifacts":["trace.json","metrics.json"]}'
//	curl localhost:8080/api/v1/jobs/s0-j1
//	curl localhost:8080/api/v1/jobs/s0-j1/artifacts/trace.json
//	curl localhost:8080/varz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/profiling"
	"repro/internal/router"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "simulation workers per shard (one job each)")
	queue := flag.Int("queue", 0, "bounded submission queue depth per shard (0 = 2*workers); full queue returns 429")
	maxJobTime := flag.Duration("max-job-time", 5*time.Minute, "wall-clock cap per job (0 = uncapped)")
	maxJobs := flag.Int("max-jobs", 1024, "retained job records per shard before terminal jobs are evicted")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
	shardName := flag.String("shard-name", "", "this replica's fleet name; prefixes job IDs (s0-j1) so a router can route them")
	shards := flag.Int("shards", 0, "run an in-process fleet of N shards behind a hash router (0 = single replica)")
	routerMode := flag.Bool("router", false, "run as a stateless router over -backends instead of simulating")
	backends := flag.String("backends", "", "comma-separated shard base URLs for -router; shard names are s0,s1,... in order")
	cacheEntries := flag.Int("cache-entries", 0, "result-cache entry bound per shard (0 = default, negative = disable)")
	cacheBytes := flag.Int64("cache-bytes", 0, "result-cache byte bound per shard (0 = default)")
	cacheDir := flag.String("cache-dir", "", "persistent artifact store: content-addressed blobs plus an index per LRU-evicted cache entry; a restarted server warms itself from it (per-shard subdirectories in fleet mode)")
	streamWindow := flag.Int("stream-window", 0, "in-memory bytes each streamed artifact keeps before spilling to disk (0 = 256 KiB)")
	spoolDir := flag.String("spool-dir", "", "where each shard makes its ephemeral artifact store when -cache-dir is unset, removed on shutdown (default: OS temp dir)")
	prof := profiling.AddFlags()
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	shardCfg := func(name string) server.Config {
		dir := *cacheDir
		if dir != "" && name != "" {
			// Shards own disjoint key ranges, but separate subdirectories keep
			// each replica's store self-contained and restart-safe.
			dir = filepath.Join(dir, name)
		}
		return server.Config{
			Name:         name,
			Workers:      *workers,
			Queue:        *queue,
			MaxJobTime:   *maxJobTime,
			MaxJobs:      *maxJobs,
			Cache:        cache.Config{MaxEntries: *cacheEntries, MaxBytes: *cacheBytes, Dir: dir},
			DisableCache: *cacheEntries < 0,
			StreamWindow: *streamWindow,
			SpoolDir:     *spoolDir,
		}
	}

	var handler http.Handler
	var replicas []*server.Server
	switch {
	case *routerMode:
		// Stateless router over remote replicas: reverse-proxy each shard.
		// Backend order fixes the shard names (s0, s1, ...), which must
		// match the -shard-name each replica was started with.
		var rs []router.Shard
		for i, b := range strings.Split(*backends, ",") {
			b = strings.TrimSpace(b)
			if b == "" {
				continue
			}
			u, err := url.Parse(b)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rtkserve: backend %q: %v\n", b, err)
				os.Exit(1)
			}
			p := httputil.NewSingleHostReverseProxy(u)
			// Negative FlushInterval flushes immediately after each write:
			// chunked artifact streams and SSE event feeds must flow through
			// the proxy as the shard produces them, not when its buffer fills.
			p.FlushInterval = -1
			rs = append(rs, router.Shard{
				Name:    fmt.Sprintf("s%d", i),
				Handler: p,
			})
		}
		if len(rs) == 0 {
			fmt.Fprintln(os.Stderr, "rtkserve: -router needs -backends")
			os.Exit(1)
		}
		handler = router.New(rs, 0)
		fmt.Printf("rtkserve: routing over %d backends\n", len(rs))
	case *shards > 0:
		// In-process fleet: N full replicas behind one hash router.
		var rs []router.Shard
		for i := 0; i < *shards; i++ {
			name := fmt.Sprintf("s%d", i)
			s := server.New(shardCfg(name))
			replicas = append(replicas, s)
			rs = append(rs, router.Shard{Name: name, Handler: s})
		}
		handler = router.New(rs, 0)
	default:
		s := server.New(shardCfg(*shardName))
		replicas = append(replicas, s)
		handler = s
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("rtkserve: listening on %s (shards=%d workers=%d queue=%d)\n",
			*addr, max(len(replicas), 1), *workers, *queue)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting connections, then drain every
	// shard's job pool — queued and in-flight jobs run to completion within
	// the budget, stragglers are cancelled at their next quiescent point.
	fmt.Println("rtkserve: draining...")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "http shutdown:", err)
	}
	for _, s := range replicas {
		if err := s.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "drain:", err)
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("rtkserve: done")
}
