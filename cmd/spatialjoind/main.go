// Command spatialjoind serves spatial joins over HTTP: a pager-backed,
// crash-safe R-tree of churned rectangles (R) is joined on demand against a
// static reference tree (S), with snapshot isolation between the single
// writer and concurrent readers.  Mutations staged via /update become
// visible atomically at round boundaries, driven by a ticker or an explicit
// /round.  Admission control sheds load with Retry-After, deadlines and
// cancellation propagate into the join, and a storage fault flips the server
// into a broken state the round loop repairs by reopening the pager (WAL
// recovery).
//
// With -shard lo:hi the daemon serves one Hilbert key range of a sharded
// deployment: /update rejects rectangles whose centre keys outside the
// range (after it has checked every op of the batch well formed), /stats
// reports the range and the snapshot's coverage summary, and
// cmd/spatialjoinrouter fans queries out across the shard set.
//
// Usage:
//
//	spatialjoind -db r.db -s-items 10000 -addr :7453 -round 500ms
//	spatialjoind -db shard0.db -addr :7461 -shard 0:2147483648
//	spatialjoind -db r.db -pprof 127.0.0.1:6060
//
// Endpoints (see internal/server's wire types):
//
//	POST /update  JSON [{"xl":..,"yl":..,"xu":..,"yu":..,"data":1,"delete":false}, ...]
//	POST /round   commit staged mutations and flip the snapshot now
//	POST /join    JSON {"workers":4,"predicate":"knn:3","discard_pairs":false} (body optional)
//	GET  /stats   server counters, epoch state and coverage summary
//
// -pprof ADDR serves net/http/pprof's profiles under /debug/pprof/ on a
// listener of its own (off by default), so the join surface never exposes
// them: `go tool pprof http://ADDR/debug/pprof/profile?seconds=10` profiles
// the daemon under load.
//
// Every join runs SJ4, the paper's recommended algorithm; a request picks
// only the predicate (intersection when left out), the parallel workers and
// whether pairs come back.  A body naming any other field is a 400.  Shard
// keys are Hilbert keys over the unit square (server.UnitWorld), the same
// grid the router routes by.  Rectangles need not lie in the unit square:
// any well-formed rectangle is accepted, the join has no world, and a
// centre outside it keys to the nearest edge cell of the grid, on the
// daemon and the router alike, so it still has exactly one home.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/zorder"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spatialjoind:", err)
		os.Exit(1)
	}
}

type daemonConfig struct {
	addr        string
	db          string
	pageSize    int
	roundEvery  time.Duration
	deadline    time.Duration
	maxInflight int
	costBudget  time.Duration
	cacheBytes  int
	sItems      int
	sSide       float64
	seed        int64
	shard       *zorder.KeyRange
	pprofAddr   string
}

func parseFlags(args []string) (daemonConfig, error) {
	fs := flag.NewFlagSet("spatialjoind", flag.ContinueOnError)
	var cfg daemonConfig
	fs.StringVar(&cfg.addr, "addr", ":7453", "listen address")
	fs.StringVar(&cfg.db, "db", "spatialjoin.db", "path of the pager-backed R relation")
	fs.IntVar(&cfg.pageSize, "page", storage.PageSize4K, "page size in bytes")
	fs.DurationVar(&cfg.roundEvery, "round", 500*time.Millisecond, "round ticker interval (0 disables; use POST /round)")
	fs.DurationVar(&cfg.deadline, "deadline", 10*time.Second, "default per-request deadline; also the time a client gets to send a request's header")
	fs.IntVar(&cfg.maxInflight, "max-inflight", 64, "admission slots before shedding")
	fs.DurationVar(&cfg.costBudget, "cost-budget", 30*time.Second, "estimated-cost budget before shedding (negative disables)")
	fs.IntVar(&cfg.cacheBytes, "cache", 1<<20, "per-epoch page cache in bytes (0 disables)")
	fs.IntVar(&cfg.sItems, "s-items", 10000, "cardinality of the synthetic static relation S")
	fs.Float64Var(&cfg.sSide, "s-side", 0.001, "rectangle side length of the synthetic S items")
	fs.Int64Var(&cfg.seed, "seed", 42, "seed of the synthetic S relation")
	fs.StringVar(&cfg.pprofAddr, "pprof", "", "listen address of the net/http/pprof profiles (empty disables)")
	shard := fs.String("shard", "", "half-open Hilbert key range lo:hi this process owns (empty serves the whole key space)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if *shard != "" {
		r, err := zorder.ParseKeyRange(*shard)
		if err != nil {
			return cfg, err
		}
		cfg.shard = &r
	}
	return cfg, nil
}

func run(ctx context.Context, args []string, out io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	logger := log.New(out, "spatialjoind: ", log.LstdFlags)

	srv, closeStorage, err := buildServer(storage.OSVFS{}, cfg)
	if err != nil {
		return err
	}
	defer closeStorage()

	handler := server.NewHandler(srv, server.HandlerConfig{Shard: cfg.shard})
	// A client gets -deadline to send a request's header, so one that sends
	// half a request line cannot hold a connection and a goroutine forever.
	// Keep-alive waits between requests are not bounded by it.
	httpSrv := &http.Server{Addr: cfg.addr, Handler: handler, ReadHeaderTimeout: cfg.deadline}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	shardDesc := "whole key space"
	if cfg.shard != nil {
		shardDesc = "shard " + cfg.shard.String()
	}
	logger.Printf("serving on %s (db %s, S=%d items, round every %v, %s)",
		ln.Addr(), cfg.db, cfg.sItems, cfg.roundEvery, shardDesc)

	var pprofSrv *http.Server
	var pln net.Listener
	if cfg.pprofAddr != "" {
		if pln, err = net.Listen("tcp", cfg.pprofAddr); err != nil {
			ln.Close()
			return err
		}
		pprofSrv = &http.Server{Handler: pprofHandler(), ReadHeaderTimeout: cfg.deadline}
		logger.Printf("profiles on http://%s/debug/pprof/", pln.Addr())
	}

	errCh := make(chan error, 2)
	go func() { errCh <- httpSrv.Serve(ln) }()
	if pprofSrv != nil {
		go func() { errCh <- pprofSrv.Serve(pln) }()
	}

	var wg sync.WaitGroup
	if cfg.roundEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			roundLoop(ctx, srv, cfg.roundEvery, logger)
		}()
	}

	select {
	case <-ctx.Done():
		logger.Printf("shutting down")
	case err := <-errCh:
		wg.Wait()
		return err
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	if pprofSrv != nil {
		if err := pprofSrv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("pprof shutdown: %v", err)
		}
	}
	wg.Wait()
	// One final round so staged mutations become durable before exit.
	if srv.Pending() > 0 && !srv.Broken() {
		if _, err := srv.Round(); err != nil {
			logger.Printf("final round: %v", err)
		}
	}
	return srv.Close()
}

// pprofHandler serves net/http/pprof's endpoints on a mux of its own, not on
// http.DefaultServeMux, so nothing else reaches them.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// buildServer opens (or creates) the pager-backed R relation, synthesises
// the static S relation, and assembles the join server with a reopen
// callback that runs WAL recovery on the same database file.
func buildServer(vfs storage.VFS, cfg daemonConfig) (*server.Server, func(), error) {
	pagerOpts := storage.PagerOptions{}
	pager, err := storage.OpenPager(vfs, cfg.db, cfg.pageSize, pagerOpts)
	if err != nil {
		return nil, nil, err
	}
	treeOpts := rtree.Options{PageSize: cfg.pageSize}

	var store *rtree.TreeStore
	if pager.Root() == storage.InvalidPage {
		tree, err := rtree.New(treeOpts)
		if err != nil {
			return nil, nil, errors.Join(err, pager.Close())
		}
		store, err = rtree.NewTreeStore(tree, pager)
		if err != nil {
			return nil, nil, errors.Join(err, pager.Close())
		}
	} else {
		store, err = rtree.OpenTreeStore(pager, treeOpts)
		if err != nil {
			return nil, nil, errors.Join(err, pager.Close())
		}
	}

	sTree, err := buildS(treeOpts, cfg)
	if err != nil {
		return nil, nil, errors.Join(err, pager.Close())
	}

	// curPager tracks the live pager across reopens so shutdown checkpoints
	// the right one.
	var mu sync.Mutex
	curPager := pager

	srv, err := server.New(server.Config{
		Store:           store,
		S:               sTree,
		MaxInflight:     cfg.maxInflight,
		CostBudget:      cfg.costBudget,
		DefaultDeadline: cfg.deadline,
		CacheBytes:      cfg.cacheBytes,
		Reopen: func() (*rtree.TreeStore, error) {
			mu.Lock()
			defer mu.Unlock()
			// The old pager is being replaced precisely because a fault broke
			// it, so its close error carries no new information.
			//repolint:ignore latchederr reopen discards the broken pager; its latched error is why we are here
			curPager.Close()
			p, err := storage.OpenPager(vfs, cfg.db, cfg.pageSize, pagerOpts)
			if err != nil {
				return nil, err
			}
			ts, err := rtree.OpenTreeStore(p, treeOpts)
			if err != nil {
				return nil, errors.Join(err, p.Close())
			}
			curPager = p
			return ts, nil
		},
	})
	if err != nil {
		return nil, nil, errors.Join(err, pager.Close())
	}
	closeStorage := func() {
		mu.Lock()
		defer mu.Unlock()
		if err := curPager.Close(); err != nil {
			log.Printf("spatialjoind: closing pager: %v", err)
		}
	}
	return srv, closeStorage, nil
}

func buildS(opts rtree.Options, cfg daemonConfig) (*rtree.Tree, error) {
	if cfg.sItems == 0 {
		return rtree.New(opts)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	items := make([]rtree.Item, cfg.sItems)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = rtree.Item{
			Rect: geom.Rect{XL: x, YL: y, XU: x + cfg.sSide, YU: y + cfg.sSide},
			Data: int32(i),
		}
	}
	return rtree.BulkLoadSTR(opts, items)
}

// roundLoop commits staged mutations on a ticker and repairs a broken
// server by reopening the store.
func roundLoop(ctx context.Context, srv *server.Server, every time.Duration, logger *log.Logger) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		if srv.Broken() {
			if err := srv.Reopen(); err != nil {
				logger.Printf("reopen: %v", err)
				continue
			}
			logger.Printf("reopened after storage fault")
		}
		if srv.Pending() == 0 {
			continue
		}
		rs, err := srv.Round()
		if err != nil {
			logger.Printf("round: %v", err)
			continue
		}
		logger.Printf("round: epoch %d, %d ops, %d pages written",
			rs.Epoch, rs.Applied, rs.Commit.PagesWritten)
	}
}
