package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/dpgo/svt/mech"
	"github.com/dpgo/svt/server"
	"github.com/dpgo/svt/store"
	"github.com/dpgo/svt/telemetry"
	"github.com/dpgo/svt/trace"
)

// host is the service as cmd/svtserve assembles it with
// -store wal -fsync interval -wire-addr, everything else at its default:
// telemetry on, tracing at 1 in trace.DefaultSampleEvery, both edges on
// loopback listeners.
type host struct {
	wal      *store.WAL
	mgr      *server.SessionManager
	wire     *server.WireServer
	http     *http.Server
	wireAddr string
	httpAddr string

	serving  sync.WaitGroup
	serveErr chan error
}

// openStore opens the WAL the way svtserve does for -fsync interval;
// with a recorder it is wrapped so appends and snapshots are timed.
func openStore(dir string, rec *recorder) (*store.WAL, store.SessionStore, error) {
	wal, err := store.NewWAL(store.WALConfig{Dir: dir, Sync: store.SyncInterval, SyncInterval: store.DefaultSyncInterval})
	if err != nil {
		return nil, nil, fmt.Errorf("open wal: %w", err)
	}
	if rec == nil {
		return wal, wal, nil
	}
	return wal, &tracedStore{WAL: wal, r: rec}, nil
}

// openManager opens a manager over st with svtserve's defaults. reg nil
// means mech.Default.
func openManager(st store.SessionStore, reg *mech.Registry) (*server.SessionManager, *telemetry.Registry, *trace.Tracer, error) {
	tel := telemetry.NewRegistry()
	tel.RegisterBuildInfo("svt_build_info", "Constant 1, labeled with the svtserve build and Go runtime versions.", "devel")
	tracer := trace.New(trace.Config{SampleEvery: trace.DefaultSampleEvery, Capacity: trace.DefaultCapacity})
	mgr, err := server.Open(server.ManagerConfig{
		Shards:           server.DefaultShards,
		DefaultTTL:       server.DefaultTTL,
		MaxTTL:           server.DefaultMaxTTL,
		SweepInterval:    server.DefaultSweepInterval,
		Store:            st,
		SnapshotInterval: server.DefaultSnapshotInterval,
		Registry:         reg,
		Telemetry:        tel,
		Tracer:           tracer,
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("open manager: %w", err)
	}
	return mgr, tel, tracer, nil
}

func startHost(dir string, rec *recorder) (*host, error) {
	wal, st, err := openStore(dir, rec)
	if err != nil {
		return nil, err
	}
	var reg *mech.Registry
	if rec != nil {
		reg = rec.registry()
	}
	mgr, tel, tracer, err := openManager(st, reg)
	if err != nil {
		wal.Close()
		return nil, err
	}
	h := &host{wal: wal, mgr: mgr, serveErr: make(chan error, 2)}
	api := server.NewAPI(mgr, server.APIConfig{
		MaxBodyBytes: server.DefaultMaxBodyBytes,
		MaxBatch:     server.DefaultMaxBatch,
		Telemetry:    tel,
		Tracer:       tracer,
	})
	h.wire = server.NewWireServer(mgr, server.WireConfig{
		MaxFrameBytes: server.DefaultMaxBodyBytes,
		MaxBatch:      server.DefaultMaxBatch,
		IdleTimeout:   5 * time.Minute,
		Telemetry:     tel,
		Tracer:        tracer,
	})
	h.http = &http.Server{
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	wireLn, err := listen(rec)
	if err != nil {
		h.closeStore()
		return nil, err
	}
	httpLn, err := listen(rec)
	if err != nil {
		wireLn.Close()
		h.closeStore()
		return nil, err
	}
	h.wireAddr, h.httpAddr = wireLn.Addr().String(), httpLn.Addr().String()
	h.serving.Add(2)
	go func() {
		defer h.serving.Done()
		if err := h.wire.Serve(wireLn); !errors.Is(err, server.ErrWireServerClosed) {
			h.serveErr <- fmt.Errorf("wire serve: %w", err)
		}
	}()
	go func() {
		defer h.serving.Done()
		if err := h.http.Serve(httpLn); !errors.Is(err, http.ErrServerClosed) {
			h.serveErr <- fmt.Errorf("http serve: %w", err)
		}
	}()
	return h, nil
}

func listen(rec *recorder) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	if rec != nil {
		return tracedListener{Listener: ln, r: rec}, nil
	}
	return ln, nil
}

func (h *host) closeStore() {
	h.mgr.Close()
	h.wal.Close()
}

// stop is svtserve's orderly shutdown: drain both edges, stop the
// manager's loops, take the final snapshot, close the store.
func (h *host) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := []error{h.http.Shutdown(ctx), h.wire.Shutdown(ctx)}
	h.serving.Wait()
	close(h.serveErr)
	for err := range h.serveErr {
		errs = append(errs, err)
	}
	h.mgr.Close()
	errs = append(errs, h.mgr.SnapshotNow(), h.wal.Close())
	return errors.Join(errs...)
}

// reopen times a restart: WAL open with recovery, then manager open,
// which replays the journal and takes its open-time snapshot.
func reopen(dir string, rec *recorder) (time.Duration, *server.SessionManager, *store.WAL, error) {
	t0 := time.Now()
	wal, st, err := openStore(dir, rec)
	if err != nil {
		return 0, nil, nil, err
	}
	mgr, _, _, err := openManager(st, nil)
	if err != nil {
		wal.Close()
		return 0, nil, nil, err
	}
	return time.Since(t0), mgr, wal, nil
}
