package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dptrace/internal/dpclient"
	"dptrace/internal/dpserver"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/ledger"
	"dptrace/internal/noise"
	"dptrace/internal/obs/qlog"
	"dptrace/internal/repl"
	"dptrace/internal/trace"
	"dptrace/internal/vfs"
)

// Dataset names the workloads use.
const (
	liveDataset     = "live"
	monitorAnalyst  = "monitor"
	standingEpsilon = 0.05
)

// sysConfig describes the system under test for one workload.
type sysConfig struct {
	// static datasets, hosted at registration and never grown.
	static map[string][]trace.Packet
	// batch > 0 hosts an empty live dataset with two standing
	// queries riding it: a tumbling count one batch wide and a
	// sliding lenquantile four batches wide, stride one batch.
	batch int
	// follower streams the ledger to one synchronous follower.
	follower bool
	seed     uint64
}

// system is one running server with its ledger, optional follower,
// and HTTP listener on loopback.
type system struct {
	srv      *dpserver.Server
	hs       *http.Server
	served   chan error
	base     string
	dir      string
	led      *ledger.Ledger
	fled     *ledger.Ledger
	follower *repl.Follower
	standing map[string]string // query kind -> standing ID
	tr       *tracer
}

// fsFor returns the ledger filesystem: traced in the traced pass.
func fsFor(tr *tracer, side string) vfs.FS {
	if tr == nil {
		return nil
	}
	return &tracedFS{FS: vfs.OS{}, t: tr, side: side, st: tr.fs(side)}
}

// startSystem opens a fresh ledger under dir, builds and registers
// the server, starts replication and the follower when asked, and
// registers the standing queries. It is the set-up the benchmark
// times (setup_s), apart from generating the records.
func startSystem(dir string, cfg sysConfig, tr *tracer) (*system, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &system{dir: dir, tr: tr, served: make(chan error, 1), standing: map[string]string{}}
	led, err := ledger.Open(ledger.Options{
		Dir: filepath.Join(dir, "primary"), Fsync: ledger.FsyncAlways, FS: fsFor(tr, "primary"),
	})
	if err != nil {
		return nil, fmt.Errorf("open ledger: %w", err)
	}
	s.led = led
	var src noise.Source = noise.NewSeededSource(cfg.seed, cfg.seed+1)
	if tr != nil {
		src = &noiseSource{inner: src, t: tr}
	}
	s.srv = dpserver.New(src,
		dpserver.WithLedger(led),
		dpserver.WithEventLog(qlog.New(qlog.Options{W: eventSink{t: tr}})))
	names := make([]string, 0, len(cfg.static))
	for name := range cfg.static {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := s.srv.AddPacketTrace(name, cfg.static[name], math.Inf(1), math.Inf(1)); err != nil {
			s.close()
			return nil, err
		}
	}
	if cfg.batch > 0 {
		if err := s.srv.AddPacketTrace(liveDataset, nil, math.Inf(1), math.Inf(1)); err != nil {
			s.close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: tr.handler(s.srv.Handler())}
	go func() { s.served <- s.hs.Serve(ln) }()

	if cfg.follower {
		if err := s.startFollower(); err != nil {
			s.close()
			return nil, err
		}
	}
	if cfg.batch > 0 {
		if err := s.registerStanding(cfg.batch); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// startFollower makes the server a primary with MinSync 1 and tails it
// with a bare repl.Follower on its own ledger, returning once the
// follower is connected and caught up.
func (s *system) startFollower() error {
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := rln.Addr().String()
	var ln net.Listener = rln
	var dial repl.DialFunc
	if s.tr != nil {
		ln = &replListener{Listener: rln, t: s.tr}
		dial = s.tr.followerDial()
	}
	if err := s.srv.StartReplication(dpserver.ReplicationConfig{Listen: ln, Name: "primary", MinSync: 1}); err != nil {
		rln.Close()
		return fmt.Errorf("start replication: %w", err)
	}
	fled, err := ledger.Open(ledger.Options{
		Dir: filepath.Join(s.dir, "follower"), Fsync: ledger.FsyncAlways, FS: fsFor(s.tr, "follower"),
	})
	if err != nil {
		return fmt.Errorf("open follower ledger: %w", err)
	}
	s.fled = fled
	f, err := repl.NewFollower(fled, repl.FollowerConfig{Primary: addr, Name: "follower", Dial: dial})
	if err != nil {
		return fmt.Errorf("start follower: %w", err)
	}
	s.follower = f
	f.Start()
	return s.waitFollower(10 * time.Second)
}

// waitFollower blocks until the follower is connected and has applied
// everything the primary committed.
func (s *system) waitFollower(limit time.Duration) error {
	if s.follower == nil {
		return nil
	}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if err := s.follower.Err(); err != nil {
			return fmt.Errorf("follower: %w", err)
		}
		if s.follower.Connected() && s.follower.Applied() >= s.led.CommittedSeq() {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("follower did not catch up")
}

func (s *system) registerStanding(batch int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := dpclient.New(s.base, monitorAnalyst)
	reqs := []api.StandingRequest{
		{ID: "count", Query: "count", Epsilon: standingEpsilon, Reservation: 1e9,
			Window: api.StandingWindow{Width: uint64(batch)}},
		{ID: "lenquantile", Query: "lenquantile", Epsilon: standingEpsilon, Reservation: 1e9, Fraction: 0.5,
			Window: api.StandingWindow{Width: uint64(4 * batch), Stride: uint64(batch)}},
	}
	for _, r := range reqs {
		r.IdempotencyKey = "standing-" + r.ID
		info, err := c.RegisterStanding(ctx, liveDataset, r)
		if err != nil {
			return fmt.Errorf("register standing %s: %w", r.ID, err)
		}
		s.standing[r.ID] = info.ID
	}
	return nil
}

// client returns an HTTP client for one traffic class: at most conns
// connections to the server.
func (s *system) client(conns int) *http.Client {
	return &http.Client{Transport: &transport{
		base: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		t:    s.tr,
	}}
}

// close stops everything the system started and waits for it.
func (s *system) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.srv != nil {
		_ = s.srv.Shutdown(ctx)
	}
	if s.hs != nil {
		_ = s.hs.Shutdown(ctx)
		<-s.served
	}
	if s.follower != nil {
		s.follower.Close()
	}
	if s.srv != nil {
		s.srv.CloseReplication()
	}
	if s.fled != nil {
		_ = s.fled.Close()
	}
	if s.led != nil {
		_ = s.led.Close()
	}
}

// remove deletes the system's ledger directories.
func (s *system) remove() { _ = os.RemoveAll(s.dir) }
