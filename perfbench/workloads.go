package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/trace"
)

// A run sets its system up at least minSetups times, and until
// minSetupTime has passed (at most maxSetups); setup_s is the median,
// and the last system is the one measured.
const (
	minSetups    = 3
	maxSetups    = 25
	minSetupTime = time.Second
)

// measurement is what one pass of a workload measured.
type measurement struct {
	e2e        map[string]float64
	detail     map[string]float64 // reported, not gated
	classes    map[string]*classCount
	validity   map[string]validity
	violations []string
	// For the per-layer summary of a traced pass.
	sys      *system
	probe    *system // the live probe's system, when it had its own
	live     *liveOutcome
	scan     *openPhase
	drivers  []driverRun
	wall     time.Duration // measured phases, set-up excluded
	requests int           // requests the workload issued while measuring
	// headline is the end-to-end metric the tracing overhead is
	// reported on.
	headline string
	rt0, rt1 runtimeCounters
}

func newMeasurement() *measurement {
	return &measurement{
		headline: "query_p50_ms",
		e2e:      map[string]float64{}, detail: map[string]float64{},
		classes: map[string]*classCount{}, validity: map[string]validity{},
	}
}

// pass describes one pass of a workload.
type pass struct {
	seed    uint64
	seconds time.Duration
	dir     string
	tr      *tracer
	toy     bool // self-test scale
}

func (p pass) frac(f float64) time.Duration { return time.Duration(f * float64(p.seconds)) }

// setUp builds the system several times, each from scratch, and keeps
// the last. gen produces the records the system hosts.
func (p pass) setUp(m *measurement, gen func() sysConfig) (*system, sysConfig, error) {
	var times []float64
	var sys *system
	var cfg sysConfig
	begin := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(begin) < minSetupTime); i++ {
		if sys != nil {
			sys.close()
			sys.remove()
		}
		start := time.Now()
		cfg = gen()
		var err error
		sys, err = startSystem(filepath.Join(p.dir, fmt.Sprintf("sys-%d", i)), cfg, p.tr)
		if err != nil {
			return nil, cfg, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	m.e2e["setup_s"] = median(times)
	return sys, cfg, nil
}

// Live-monitor traffic, sized to keep two cores well short of busy
// even when the host's neighbours slow it: 500-record batches at
// 10 000 records/s, analysts at 50 queries/s. The capacity phases do
// a fixed amount of work, sized from the nominal capacities here so
// that they take about the share of the run frac gives them.
const (
	liveBatch       = 500
	liveRecordRate  = 10000
	liveAnalystRate = 50
	liveStaticSize  = 10000
	nominalBatchCap = 200 // batches per second, closed loop
	nominalQueryCap = 700 // live analyst queries per second, closed loop
	nominalScanCap  = 9   // scan-mix queries per second, closed loop
)

func liveSysConfig(seed uint64) sysConfig {
	rng := rand.New(rand.NewPCG(seed, 1))
	return sysConfig{
		static:   map[string][]trace.Packet{staticDataset: synthPackets(rng, liveStaticSize, 0)},
		batch:    liveBatch,
		follower: true,
		seed:     seed,
	}
}

// liveConfig sizes the live traffic to shares of the pass: open is the
// open-loop phase, batches and queries the capacity phases (0 = no
// analysts).
func (p pass) liveConfig(open, batches, queries float64) liveConfig {
	lc := liveConfig{
		batch: liveBatch, recordRate: liveRecordRate,
		open:       p.frac(open),
		capBatches: int(nominalBatchCap * p.frac(batches).Seconds()),
		capQueries: int(nominalQueryCap * p.frac(queries).Seconds()),
		limit:      3 * p.frac(batches+queries),
	}
	if queries > 0 {
		lc.analystRate = liveAnalystRate
	}
	return lc
}

// runLiveMonitor is the live-monitor workload.
func runLiveMonitor(ctx context.Context, p pass) (*measurement, error) {
	m := newMeasurement()
	sys, cfg, err := p.setUp(m, func() sysConfig { return liveSysConfig(p.seed) })
	if err != nil {
		return nil, err
	}
	m.sys = sys
	if err := p.measure(m, func() error {
		out, err := runLive(ctx, sys, p.liveConfig(0.6, 0.2, 0.15), p.seed, cfg.static[staticDataset])
		m.live = out
		return err
	}); err != nil {
		return m, err
	}
	m.liveMetrics(true)
	m.violations = append(m.violations, auditLive(ctx, sys, m.live)...)
	p.batchProbe(m)
	return m, nil
}

// measure runs fn as the measured part of a pass, sampling the heap
// and the runtime counters around it.
func (p pass) measure(m *measurement, fn func() error) error {
	runtime.GC()
	p.tr.reset()
	heap := startHeapSampler()
	stopLag := make(chan struct{})
	lagDone := make(chan struct{})
	go func() {
		defer close(lagDone)
		sampleLag(p.tr, m.sys, stopLag)
	}()
	m.rt0 = readRuntime()
	start := time.Now()
	err := fn()
	m.wall = time.Since(start)
	close(stopLag)
	<-lagDone
	m.rt1 = readRuntime()
	m.e2e["heap_peak_mb"], m.detail["heap_max_mb"] = heap.finish()
	return err
}

// probeDrivers is the short driver list batch_s times on workloads
// other than paper-batch, and probeRounds how many times it runs after
// an untimed round that builds the drivers' cached datasets.
var probeDrivers = []string{"table4", "itemsets", "fig5"}

const probeRounds = 15

// batchProbe measures batch_s on workloads other than paper-batch: the
// median over rounds of the probe drivers' wall time, after a GC so
// the live traffic's garbage is not collected on the drivers' time.
func (p pass) batchProbe(m *measurement) {
	runtime.GC()
	var secs []float64
	for round := 0; round <= probeRounds; round++ {
		runs := runDrivers(probeDrivers, p.tr)
		total := 0.0
		for _, r := range runs {
			total += r.secs
			if r.err != nil {
				m.violations = append(m.violations, fmt.Sprintf("%s: %v", r.name, r.err))
			}
		}
		if round > 0 {
			secs = append(secs, total)
			m.drivers = runs
		}
	}
	m.e2e["batch_s"] = median(secs)
}

// liveProbe measures the ingest and window-lag metrics on scan-mix: a
// fresh live-monitor system, set up once, running a short burst of the
// live traffic without analysts.
func (p pass) liveProbe(ctx context.Context, m *measurement) error {
	cfg := liveSysConfig(p.seed)
	start := time.Now()
	sys, err := startSystem(filepath.Join(p.dir, "probe"), cfg, p.tr)
	if err != nil {
		return err
	}
	probeSetup := time.Since(start).Seconds()
	defer func() {
		sys.close()
		sys.remove()
	}()
	out, err := runLive(ctx, sys, p.liveConfig(0.2, 0.06, 0), p.seed, nil)
	if err != nil {
		return err
	}
	m.live, m.probe = out, sys
	m.liveMetrics(false)
	m.violations = append(m.violations, auditLive(ctx, sys, out)...)
	m.detail["probe_setup_s"] = probeSetup
	return nil
}

// liveMetrics fills the end-to-end metrics a live run measured; the
// analysts' only when queries is set.
func (m *measurement) liveMetrics(queries bool) {
	out := m.live
	var acks []float64
	for i, ph := range out.ingest {
		acks = append(acks, ph.latencies()...)
		m.validity[fmt.Sprintf("ingest-%d", i)] = out.ingestValid[i]
	}
	m.e2e["ingest_ack_p50_ms"] = quantile(acks, 0.5)
	m.e2e["ingest_ack_p90_ms"] = quantile(acks, 0.9)
	m.detail["ingest_ack_p99_ms"] = quantile(acks, 0.99)
	m.detail["ingest_ack_samples"] = float64(len(acks))
	m.e2e["ingest_capacity_rps"] = out.ingestRate
	m.e2e["window_lag_p50_ms"] = quantile(out.windowLag, 0.5)
	m.e2e["window_lag_p90_ms"] = quantile(out.windowLag, 0.9)
	m.detail["window_lag_p99_ms"] = quantile(out.windowLag, 0.99)
	m.detail["window_lag_samples"] = float64(len(out.windowLag))
	if queries && out.queries != nil {
		lat := out.queries.latencies()
		m.e2e["query_p50_ms"] = quantile(lat, 0.5)
		m.e2e["query_p90_ms"] = quantile(lat, 0.9)
		m.detail["query_p99_ms"] = quantile(lat, 0.99)
		m.detail["query_samples"] = float64(len(lat))
		m.e2e["query_capacity_qps"] = out.queryRate
		m.validity["query"] = out.queryValid
	}
	for name, c := range out.classes {
		m.classes[name] = c
		m.requests += c.Attempted
	}
	m.violations = append(m.violations, out.violations...)
}

// auditLive runs the live traffic's correctness audits.
func auditLive(ctx context.Context, sys *system, out *liveOutcome) []string {
	_, v := auditStanding(ctx, sys)
	if qa := out.queryClients; qa != nil {
		v = append(v, qa.violations...)
		v = append(v, qa.audit(ctx, sys, 0)...)
	}
	return append(v, auditReplica(sys)...)
}

// Scan-mix traffic: every packet kind in turn, half of them filtered,
// at about a third of what two cores serve.
const (
	scanRate     = 3.0 // queries per second, open loop
	scanDataset  = "trace"
	scanAnalysts = 4
)

// scanKinds is the scan-mix cycle: every packet query kind once.
var scanKinds = api.PacketQueryKinds()

// scanCycle is the number of requests before the mix repeats: every
// kind, filtered and not.
var scanCycle = 2 * len(scanKinds)

func scanRequests(n int, port int, source string, first int) []qspec {
	out := make([]qspec, n)
	for i := range out {
		k := first + i
		q := qspec{analyst: k % scanAnalysts, replay: -1, req: api.QueryRequest{
			Dataset: scanDataset, Query: scanKinds[k%len(scanKinds)], Epsilon: queryEpsilon,
			IdempotencyKey: fmt.Sprintf("s-%d", k),
		}}
		if (k/len(scanKinds)+k)%2 == 1 {
			q.req.Filter = &api.Filter{DstPort: &port}
		}
		switch q.req.Query {
		case "srcfreq":
			q.req.Key = source
		case "lenquantile":
			q.req.Fraction = 0.5
		}
		out[i] = q
	}
	return out
}

// runScanMix is the scan-mix workload.
func runScanMix(ctx context.Context, p pass) (*measurement, error) {
	m := newMeasurement()
	scale := float64(scanTraceScale)
	if p.toy {
		scale = 0.1
	}
	sys, cfg, err := p.setUp(m, func() sysConfig {
		return sysConfig{
			static: map[string][]trace.Packet{scanDataset: hotspotTrace(p.seed, scale)},
			seed:   p.seed,
		}
	})
	if err != nil {
		return nil, err
	}
	m.sys = sys
	records := cfg.static[scanDataset]
	m.detail["trace_packets"] = float64(len(records))
	nproc := runtime.NumCPU()
	port := topPorts(records, 1)[0]
	source := topSources(records, 1)[0]
	qa := newAnalysts(sys, scanDataset, records, scanAnalysts, nproc, &atomic.Int64{})
	// Warm-up, untimed: every kind once, which also learns each
	// kind's ε charge.
	if err := qa.calibrate(ctx, scanRequests(len(scanKinds), port, source, 2_000_000)); err != nil {
		return m, err
	}
	rng := rand.New(rand.NewPCG(p.seed, 3))
	err = p.measure(m, func() error {
		dues := poissonDues(rng, scanRate, p.frac(0.6))
		reqs := scanRequests(len(dues), port, source, 0)
		m.scan = runOpen(dues, p.frac(0.6), nproc, func(i int, _ time.Time) bool {
			return qa.send(ctx, &reqs[i])
		})
		// Whole cycles of the mix, so every run does the same work.
		n := max(1, int(nominalScanCap*p.frac(0.25).Seconds())/scanCycle) * scanCycle
		qc := runClosed(nproc, n, 3*p.frac(0.25), func(w, i int) bool {
			q := scanRequests(1, port, source, 1_000_000+i)[0]
			return qa.send(ctx, &q)
		})
		m.e2e["query_capacity_qps"] = qc.rate(scanCycle)
		qcount := &classCount{}
		countOpen(qcount, m.scan)
		qcount.add(qc)
		m.classes["query"] = qcount
		m.requests = qcount.Attempted
		return nil
	})
	if err != nil {
		return m, err
	}
	lat := m.scan.latencies()
	m.e2e["query_p50_ms"] = quantile(lat, 0.5)
	m.e2e["query_p90_ms"] = quantile(lat, 0.9)
	m.detail["query_p99_ms"] = quantile(lat, 0.99)
	m.detail["query_samples"] = float64(len(lat))
	m.validity["query"] = m.scan.validity(nproc)
	m.violations = append(m.violations, qa.violations...)
	m.violations = append(m.violations, qa.audit(ctx, sys, 0)...)

	// The probes run after the scan system is gone, so its heap does
	// not weigh on them.
	if p.tr == nil {
		sys.close()
		sys.remove()
		m.sys = nil
	}
	runtime.GC()
	if err := p.liveProbe(ctx, m); err != nil {
		return m, err
	}
	p.batchProbe(m)
	return m, nil
}

// runPaperBatch is the paper-batch workload: the paper's evaluation
// drivers in-process, in order, with no server. A short live probe
// afterwards measures the serving metrics, and its set-up is setup_s.
func runPaperBatch(ctx context.Context, p pass) (*measurement, error) {
	m := newMeasurement()
	names := driverNames()
	if p.toy {
		names = []string{"table4", "fig5"}
	}
	if p.tr != nil {
		core.SetDefaultRecorder(&opRecorder{t: p.tr})
		defer core.SetDefaultRecorder(nil)
	}
	err := p.measure(m, func() error {
		start := time.Now()
		m.drivers = runDrivers(names, p.tr)
		m.e2e["batch_s"] = time.Since(start).Seconds()
		return nil
	})
	if err != nil {
		return m, err
	}
	for _, r := range m.drivers {
		m.detail["driver_"+r.name+"_s"] = r.secs
		if r.err != nil {
			m.violations = append(m.violations, fmt.Sprintf("%s: %v", r.name, r.err))
		}
	}
	m.classes["drivers"] = &classCount{Attempted: len(m.drivers), Succeeded: len(m.drivers)}
	runtime.GC()
	sys, cfg, err := p.setUp(m, func() sysConfig { return liveSysConfig(p.seed) })
	if err != nil {
		return m, err
	}
	m.sys = sys
	out, err := runLive(ctx, sys, p.liveConfig(0.2, 0.06, 0.06), p.seed, cfg.static[staticDataset])
	if err != nil {
		return m, err
	}
	m.live = out
	m.liveMetrics(true)
	// The runtime counters cover the drivers, one op each.
	m.requests = len(m.drivers)
	m.headline = "batch_s"
	m.violations = append(m.violations, auditLive(ctx, sys, out)...)
	return m, nil
}
