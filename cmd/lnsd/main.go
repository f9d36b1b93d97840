// Command lnsd runs the network-server daemon: an HTTP(+JSON) LNS-style
// service around internal/netserver (via internal/lns) that ingests
// batched uplink reports, recomputes per-node degradation on the
// virtual clock carried by the traffic, disseminates the quantized w_u
// table, and snapshots/restores its full per-node state across
// restarts.
//
// Usage:
//
//	lnsd -addr 127.0.0.1:8080
//	lnsd -addr 127.0.0.1:8080 -lns-shards 4            # 4 node-ID-range worker lanes
//	lnsd -addr 127.0.0.1:8080 -restore snap.json      # resume from a snapshot
//	lnsd -addr 127.0.0.1:8080 -snapshot-exit snap.json # persist on SIGTERM
//
// See internal/lns.Daemon.Handler for the endpoint list; cmd/loadgen is
// the replay client (obs JSONL exports are the traffic format).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/lns"
	"repro/internal/netserver"
	"repro/internal/simtime"
)

// Slow-client bounds. A client gets readHeaderTimeout to send each
// request's headers and may hold a keep-alive connection idle for
// idleTimeout between requests; both sit well above the longest
// keep-alive replay stream the load tools drive (about 15 s), so only
// stalled or hostile connections are cut.
const (
	readHeaderTimeout = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lnsd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		tempC      = flag.Float64("temp", 25, "battery temperature in Celsius")
		interval   = flag.Duration("interval", 24*time.Hour, "w_u recompute interval in simulated time")
		shards     = flag.Int("lns-shards", 1, "node-ID-range shards (worker lanes); 1 = single-lane determinism oracle")
		queue      = flag.Int("queue", 256, "per-shard ingest lane depth in batches before 429 backpressure")
		retryAfter = flag.Duration("retry-after", time.Second, "Retry-After hint sent with 429")
		restore    = flag.String("restore", "", "snapshot file to restore state from at boot")
		snapExit   = flag.String("snapshot-exit", "", "snapshot file to write on graceful shutdown")
	)
	flag.Parse()

	d, err := lns.NewDaemon(lns.Config{
		TempC:      *tempC,
		Interval:   simtime.FromDuration(*interval),
		Shards:     *shards,
		QueueDepth: *queue,
		RetryAfter: *retryAfter,
	})
	if err != nil {
		return err
	}
	defer d.Close()

	if *restore != "" {
		data, err := os.ReadFile(*restore)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		var snap netserver.Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("restore %s: %w", *restore, err)
		}
		if err := d.RestoreState(&snap); err != nil {
			return fmt.Errorf("restore %s: %w", *restore, err)
		}
		log.Printf("lnsd: restored %d nodes from %s", len(snap.Nodes), *restore)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           d.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("lnsd: listening on %s (%d shard(s))", *addr, *shards)
		errCh <- srv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		log.Printf("lnsd: %v, shutting down", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}

	if *snapExit != "" {
		snap, err := d.SnapshotState()
		if err != nil {
			return fmt.Errorf("snapshot-exit: %w", err)
		}
		data, err := json.Marshal(snap)
		if err != nil {
			return fmt.Errorf("snapshot-exit: %w", err)
		}
		if err := os.WriteFile(*snapExit, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("snapshot-exit: %w", err)
		}
		log.Printf("lnsd: wrote snapshot to %s", *snapExit)
	}
	return nil
}
