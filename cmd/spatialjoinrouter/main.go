// Command spatialjoinrouter fronts a deployment of Hilbert-range shards
// (spatialjoind processes started with -shard lo:hi) and serves the same
// HTTP surface a single daemon would: updates route to the shard owning
// the rectangle's centre key, joins fan out to every shard and gather into
// one pair set in a deterministic order, and failures stay typed — a
// partial fan-out is an error, never a silently truncated result.
//
// The shard layout is learned, not configured: at startup the router polls
// each shard's GET /stats (with retries, so shards may still be booting)
// and reads the advertised key range.  The ranges must tile the Hilbert
// key space exactly or the router refuses to start.  After startup routing
// is key-range only: a join goes to every shard and never waits on /stats,
// which the gateway's own GET /stats merely fans out for operators.
//
// Usage:
//
//	spatialjoinrouter -addr :7460 -shards http://127.0.0.1:7461,http://127.0.0.1:7462
//
// The endpoints and the error mapping are router.NewHandler's; this command
// owns the flags, shard discovery and the serve/drain loop.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/zorder"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spatialjoinrouter:", err)
		os.Exit(1)
	}
}

type routerFlags struct {
	addr          string
	shardURLs     []string
	deadline      time.Duration
	retries       int
	backoff       time.Duration
	maxRetryAfter time.Duration
	discoverFor   time.Duration
}

func parseFlags(args []string) (routerFlags, error) {
	fs := flag.NewFlagSet("spatialjoinrouter", flag.ContinueOnError)
	var cfg routerFlags
	var shards string
	fs.StringVar(&cfg.addr, "addr", ":7460", "listen address")
	fs.StringVar(&shards, "shards", "", "comma-separated shard base URLs (ranges are learned from each shard's /stats)")
	fs.DurationVar(&cfg.deadline, "deadline", 30*time.Second, "per-attempt shard request timeout; also the time a client gets to send a request's header")
	fs.IntVar(&cfg.retries, "retries", 3, "attempts per shard request before the shard counts as failed")
	fs.DurationVar(&cfg.backoff, "backoff", 50*time.Millisecond, "first retry delay (doubles per attempt)")
	fs.DurationVar(&cfg.maxRetryAfter, "max-retry-after", 2*time.Second, "cap on a shedding shard's honoured Retry-After")
	fs.DurationVar(&cfg.discoverFor, "discover-timeout", 10*time.Second, "how long to keep polling shards for their key ranges at startup")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	for _, u := range strings.Split(shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			cfg.shardURLs = append(cfg.shardURLs, u)
		}
	}
	if len(cfg.shardURLs) == 0 {
		return cfg, errors.New("no -shards configured")
	}
	return cfg, nil
}

// discoverShards polls each shard's /stats until it advertises its key
// range (shards may still be starting), bounded by the discovery timeout.
// A shard advertising no range owns the whole key space — a single
// unsharded daemon behind the router is a valid one-shard deployment.
func discoverShards(ctx context.Context, client *http.Client, cfg routerFlags) ([]router.Shard, error) {
	ctx, cancel := context.WithTimeout(ctx, cfg.discoverFor)
	defer cancel()
	shards := make([]router.Shard, len(cfg.shardURLs))
	for i, url := range cfg.shardURLs {
		url = strings.TrimRight(url, "/")
		rng, err := pollShardRange(ctx, client, url)
		if err != nil {
			return nil, fmt.Errorf("discovering %s: %w", url, err)
		}
		shards[i] = router.Shard{Name: fmt.Sprintf("shard%d@%s", i, url), URL: url, Range: rng}
	}
	return shards, nil
}

func pollShardRange(ctx context.Context, client *http.Client, url string) (zorder.KeyRange, error) {
	var lastErr error
	for {
		rng, err := fetchShardRange(ctx, client, url)
		if err == nil {
			return rng, nil
		}
		lastErr = err
		t := time.NewTimer(200 * time.Millisecond)
		select {
		case <-ctx.Done():
			t.Stop()
			return zorder.KeyRange{}, fmt.Errorf("%w (last error: %v)", ctx.Err(), lastErr)
		case <-t.C:
		}
	}
}

func fetchShardRange(ctx context.Context, client *http.Client, url string) (zorder.KeyRange, error) {
	reqCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, url+"/stats", nil)
	if err != nil {
		return zorder.KeyRange{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return zorder.KeyRange{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return zorder.KeyRange{}, fmt.Errorf("stats returned %d", resp.StatusCode)
	}
	var wire server.StatsWire
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		return zorder.KeyRange{}, err
	}
	if wire.Shard == "" {
		return zorder.KeyRange{Lo: 0, Hi: zorder.KeySpace}, nil
	}
	return zorder.ParseKeyRange(wire.Shard)
}

func run(ctx context.Context, args []string, out io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	logger := log.New(out, "spatialjoinrouter: ", log.LstdFlags)
	client := &http.Client{}

	shards, err := discoverShards(ctx, client, cfg)
	if err != nil {
		return err
	}
	rt, err := router.New(router.Config{
		Shards:        shards,
		Client:        client,
		ShardTimeout:  cfg.deadline,
		RetryAttempts: cfg.retries,
		RetryBackoff:  cfg.backoff,
		MaxRetryAfter: cfg.maxRetryAfter,
	})
	if err != nil {
		return err
	}
	for _, sh := range rt.Shards() {
		logger.Printf("shard %s owns %s", sh.URL, sh.Range)
	}

	// A client gets -deadline to send a request's header, so one that sends
	// half a request line cannot hold a connection and a goroutine forever.
	// Keep-alive waits between requests are not bounded by it.
	httpSrv := &http.Server{Addr: cfg.addr, Handler: router.NewHandler(rt), ReadHeaderTimeout: cfg.deadline}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	logger.Printf("routing on %s over %d shards", ln.Addr(), len(shards))

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		logger.Printf("shutting down")
	case err := <-errCh:
		return err
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("shutdown: %v", err)
		return err
	}
	return nil
}
