package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dptrace/internal/dpclient"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/trace"
)

// liveConfig sizes the live traffic: ingest senders pushing batches
// into the live dataset (which two standing queries ride), optionally
// with analysts querying a small static dataset at the same time.
type liveConfig struct {
	batch       int           // records per ingest batch
	recordRate  float64       // records per second over all senders
	analystRate float64       // analyst queries per second (0 = none)
	open        time.Duration // open-loop phase
	// Closed-loop capacity phases: a fixed number of batches and of
	// analyst queries (0 = none), each bounded by limit.
	capBatches, capQueries int
	limit                  time.Duration
}

// Pool of distinct batches each sender cycles through.
const batchPool = 64

// rateWindow is the completion window the live capacity phases take
// their median rate over.
const rateWindow = 50

// sender is one ingest client: its own connection, encoding and batch
// identity.
type sender struct {
	c      *dpclient.Client
	source string
	ndjson bool
	pool   [][]trace.Packet
	seq    atomic.Int64
}

func (s *sender) send(ctx context.Context, tr *tracer, ids *atomic.Int64, i int) (*dpclient.IngestAck, error) {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	ctx, end := tr.clientCall(ctx, ids.Add(1))
	defer end("ingest")
	opts := []dpclient.IngestOption{
		dpclient.WithBatchSource(s.source),
		dpclient.WithBatchSeq(strconv.FormatInt(s.seq.Add(1), 10)),
	}
	if s.ndjson {
		opts = append(opts, dpclient.WithNDJSON())
	}
	return s.c.IngestBatch(ctx, liveDataset, dpclient.Batch{Packets: s.pool[i%len(s.pool)]}, opts...)
}

// classCount counts one traffic class's requests.
type classCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// liveOutcome is what a live run measured.
type liveOutcome struct {
	queries      *openPhase // nil without analysts
	queryValid   validity
	ingest       []*openPhase
	ingestValid  []validity
	windowLag    []float64 // ms
	ingestRate   float64   // records applied per second, closed loop
	queryRate    float64   // queries per second, closed loop
	classes      map[string]*classCount
	violations   []string
	senders      []*sender
	queryClients *analysts
}

// liveRequests builds n analyst requests against the small static
// dataset: selective counts and per-source frequencies, cheap for the
// engine, one count to three srcfreq (a srcfreq costs about three
// counts, so the latency percentiles fall inside one mode rather than
// on the edge between two). One in ten re-sends an earlier request's
// idempotency key.
func liveRequests(rng *rand.Rand, n int, ports []int, sources []string, first int) []qspec {
	out := make([]qspec, n)
	for i := range out {
		if i%10 == 9 {
			j := i - 1 - rng.IntN(8)
			out[i] = out[j]
			out[i].replay = j
			continue
		}
		k := first + i
		port := ports[k%len(ports)]
		q := qspec{analyst: (k / 4) % 4, replay: -1, req: api.QueryRequest{
			Dataset: staticDataset, Epsilon: queryEpsilon,
			IdempotencyKey: fmt.Sprintf("q-%d", k),
		}}
		if k%4 == 0 {
			q.req.Query = "count"
			q.req.Filter = &api.Filter{DstPort: &port}
		} else {
			q.req.Query = "srcfreq"
			q.req.Key = sources[k%len(sources)]
		}
		out[i] = q
	}
	return out
}

// staticDataset is the live-monitor analysts' small static dataset.
const staticDataset = "static"

// runLive drives the live traffic against sys. static holds the small
// dataset's records when analysts run (nil otherwise).
func runLive(ctx context.Context, sys *system, cfg liveConfig, seed uint64, static []trace.Packet) (*liveOutcome, error) {
	nproc := runtime.NumCPU()
	ids := &atomic.Int64{}
	out := &liveOutcome{classes: map[string]*classCount{"ingest": {}, "standing": {}}}
	rng := rand.New(rand.NewPCG(seed, 7))

	for j := 0; j < nproc; j++ {
		s := &sender{
			c:      dpclient.New(sys.base, "sender", dpclient.WithHTTPClient(sys.client(1))),
			source: fmt.Sprintf("sender-%d", j),
			ndjson: j%2 == 1,
		}
		for b := 0; b < batchPool; b++ {
			s.pool = append(s.pool, synthPackets(rng, cfg.batch, int64(b)*1_000_000))
		}
		out.senders = append(out.senders, s)
	}

	var qa *analysts
	var ports []int
	var sources []string
	if cfg.analystRate > 0 {
		out.classes["query"] = &classCount{}
		qa = newAnalysts(sys, staticDataset, static, 4, nproc, ids)
		out.queryClients = qa
		ports = topPorts(static, 4)
		sources = topSources(static, 8)
		if err := qa.calibrate(ctx, liveRequests(rng, 2, ports, sources, 2_000_000)); err != nil {
			return nil, err
		}
	}

	// Warm-up, untimed: two batches per sender, then let the follower
	// catch up.
	for _, s := range out.senders {
		for i := 0; i < 2; i++ {
			if _, err := s.send(ctx, nil, ids, i); err != nil {
				return nil, fmt.Errorf("warm-up batch: %w", err)
			}
		}
	}
	if err := sys.waitFollower(10 * time.Second); err != nil {
		return nil, err
	}

	subCtx, stopSubs := context.WithCancel(ctx)
	subs := startSubscribers(subCtx, sys)

	// Open-loop phase: every traffic class at its fixed rate.
	var (
		mu       sync.Mutex
		dueByEnd = map[int]time.Time{} // dataset size after a batch -> its due time
		wg       sync.WaitGroup
	)
	period := time.Duration(float64(time.Second) * float64(cfg.batch*nproc) / cfg.recordRate)
	nb := int(cfg.open / period)
	out.ingest = make([]*openPhase, nproc)
	for j, s := range out.senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dues := periodicDues(nb, period, time.Duration(j)*period/time.Duration(nproc))
			out.ingest[j] = runOpen(dues, cfg.open, 1, func(i int, due time.Time) bool {
				ack, err := s.send(ctx, sys.tr, ids, i)
				if err != nil {
					return false
				}
				mu.Lock()
				dueByEnd[ack.TotalRecords] = due
				mu.Unlock()
				return true
			})
		}()
	}
	if qa != nil {
		dues := poissonDues(rng, cfg.analystRate, cfg.open)
		reqs := liveRequests(rng, len(dues), ports, sources, 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.queries = runOpen(dues, cfg.open, nproc, func(i int, _ time.Time) bool {
				return qa.send(ctx, &reqs[i])
			})
		}()
	}
	wg.Wait()
	for _, p := range out.ingest {
		out.ingestValid = append(out.ingestValid, p.validity(1))
		countOpen(out.classes["ingest"], p)
	}
	if qa != nil {
		out.queryValid = out.queries.validity(nproc)
		countOpen(out.classes["query"], out.queries)
	}

	// Closed-loop ingest capacity: nproc senders, each sending its
	// next batch when the last is acknowledged.
	var applied atomic.Int64
	capStart := nb + 2
	ic := runClosed(nproc, cfg.capBatches, cfg.limit, func(w, i int) bool {
		ack, err := out.senders[w].send(ctx, sys.tr, ids, capStart+i)
		if err != nil {
			return false
		}
		applied.Add(int64(ack.Records))
		return true
	})
	out.classes["ingest"].add(ic)
	if ic.ok > 0 {
		// Batches are fixed-size, so records/s is batches/s × batch.
		out.ingestRate = ic.rate(rateWindow) * float64(applied.Load()) / float64(ic.ok)
	}

	if qa != nil && cfg.capQueries > 0 {
		qc := runClosed(nproc, cfg.capQueries, cfg.limit, func(w, i int) bool {
			q := liveRequests(nil, 1, ports, sources, 1_000_000+i)[0]
			return qa.send(ctx, &q)
		})
		out.classes["query"].add(qc)
		out.queryRate = qc.rate(rateWindow)
	}

	// Let the subscribers drain the last windows, then stop them.
	out.windowLag, out.violations = subs.finish(ctx, sys, stopSubs, dueByEnd)
	out.classes["standing"] = &subs.count
	if err := sys.waitFollower(10 * time.Second); err != nil {
		out.violations = append(out.violations, err.Error())
	}
	return out, nil
}

func countOpen(c *classCount, p *openPhase) {
	for _, r := range p.results {
		c.Attempted++
		if r.ok {
			c.Succeeded++
		} else {
			c.Failed++
		}
	}
}

func (c *classCount) add(p closedPhase) {
	c.Attempted += p.ok + p.failed
	c.Succeeded += p.ok
	c.Failed += p.failed
}

// subscribers long-poll every standing query's results and record
// when each window's result arrived.
type subscribers struct {
	wg    sync.WaitGroup
	mu    sync.Mutex
	recv  map[string]map[uint64]time.Time // standing ID -> window end -> arrival
	next  map[string]uint64               // standing ID -> cursor
	count classCount
}

func startSubscribers(ctx context.Context, sys *system) *subscribers {
	s := &subscribers{recv: map[string]map[uint64]time.Time{}, next: map[string]uint64{}}
	hc := sys.client(len(sys.standing))
	for _, id := range sys.standing {
		s.recv[id] = map[uint64]time.Time{}
		c := dpclient.New(sys.base, monitorAnalyst, dpclient.WithHTTPClient(hc))
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			var after uint64
			// Skip windows fired before the subscriber started.
			if res, err := c.StandingResults(ctx, liveDataset, id, 0, 0); err == nil {
				after = res.NextWindow
			}
			for ctx.Err() == nil {
				res, err := c.StandingResults(ctx, liveDataset, id, after, 1000)
				at := time.Now()
				if ctx.Err() != nil {
					return
				}
				s.mu.Lock()
				s.count.Attempted++
				if err != nil {
					s.count.Failed++
					s.mu.Unlock()
					continue
				}
				s.count.Succeeded++
				if windows, err := res.Decoded(); err == nil {
					for _, w := range windows {
						if _, seen := s.recv[id][w.End]; !seen {
							s.recv[id][w.End] = at
						}
					}
				}
				after = res.NextWindow
				s.next[id] = after
				s.mu.Unlock()
			}
		}()
	}
	return s
}

// finish waits until every subscriber has seen every fired window (or
// gives up after a bound), stops them, and returns each window's lag
// from the due time of the batch that closed it.
func (s *subscribers) finish(ctx context.Context, sys *system, stop context.CancelFunc, dueByEnd map[int]time.Time) ([]float64, []string) {
	var violations []string
	c := dpclient.New(sys.base, monitorAnalyst)
	deadline := time.Now().Add(5 * time.Second)
	for {
		infos, err := c.ListStanding(ctx, liveDataset)
		if err != nil {
			violations = append(violations, fmt.Sprintf("standing list: %v", err))
			break
		}
		caught := true
		s.mu.Lock()
		for _, info := range infos {
			if s.next[info.ID] < info.NextWindow {
				caught = false
			}
		}
		s.mu.Unlock()
		if caught {
			break
		}
		if time.Now().After(deadline) {
			violations = append(violations, "standing subscribers did not see every window")
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	s.wg.Wait()
	var lags []float64
	for _, byEnd := range s.recv {
		for end, at := range byEnd {
			if due, ok := dueByEnd[int(end)]; ok {
				lags = append(lags, ms(at.Sub(due)))
			}
		}
	}
	return lags, violations
}
