// Command scaf-router fronts a fleet of scaf-serve instances: it speaks
// the exact scaf-serve HTTP surface, broadcasts session mutations to every
// backend in one serialized order (keeping their session registries and
// IDs identical), and shards analyze/query traffic across the fleet by
// consistent hash.
//
//	scaf-router -addr :8400 \
//	  -backends b0=http://127.0.0.1:8347,b1=http://127.0.0.1:8348
//
// A down backend's shard is refused with 503 + Retry-After (no failover);
// the prober replays the session journal and re-syncs quarantine state
// when the backend comes back.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"scaf/internal/server"
)

func main() {
	addr := flag.String("addr", ":8400", "listen address")
	backends := flag.String("backends", "", "comma-separated id=url backend list (required)")
	timeout := flag.Duration("timeout", 0, "per-backend request timeout (0: unbounded)")
	probe := flag.Duration("probe", 2*time.Second, "down-backend health probe period (the backoff base)")
	probeMax := flag.Duration("probe-max", 0, "cap on the probe backoff for persistently down backends (0: 16x the probe period)")
	drainTimeout := flag.Duration("drain-timeout", 0, "bound on waiting out in-flight reads during a membership cutover; exceeding it rolls the move back (0: 30s)")
	cacheDir := flag.String("cache-dir", "", "directory for the session-journal snapshot; reboots resume session IDs, rejoin replay, and live-joined members")
	flag.Parse()

	bk := map[string]string{}
	for _, kv := range strings.Split(*backends, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		id, url, ok := strings.Cut(kv, "=")
		if !ok {
			log.Fatalf("scaf-router: -backends entry %q is not id=url", kv)
		}
		bk[id] = url
	}
	if len(bk) == 0 {
		log.Fatal("scaf-router: -backends is required")
	}
	if *cacheDir != "" {
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			log.Fatalf("scaf-router: -cache-dir: %v", err)
		}
	}

	rt := server.NewRouter(server.RouterConfig{
		Backends:     bk,
		Timeout:      *timeout,
		Probe:        *probe,
		ProbeMax:     *probeMax,
		DrainTimeout: *drainTimeout,
		CacheDir:     *cacheDir,
	})
	hs := server.NewHTTPServer(*addr, rt.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("scaf-router: listening on %s, %d backends", *addr, len(bk))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("scaf-router: %v", err)
	case sig := <-sigc:
		log.Printf("scaf-router: %v: shutting down", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("scaf-router: http shutdown: %v", err)
	}
	rt.Close()
}
