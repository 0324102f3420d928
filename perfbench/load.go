package main

import (
	"math"
	"math/rand/v2"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// openResult is one open-loop request's timing, relative to the start
// of its phase.
type openResult struct {
	due, sent, done time.Duration
	ok              bool
}

// openPhase is the outcome of one open-loop phase.
type openPhase struct {
	results  []openResult
	lateness []float64 // generator lateness per request (ms): dispatched − due
	length   time.Duration
}

// poissonDues returns the due offsets of a Poisson arrival process at
// rate per second over length.
func poissonDues(rng *rand.Rand, rate float64, length time.Duration) []time.Duration {
	var dues []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= length {
			return dues
		}
		dues = append(dues, d)
	}
}

// periodicDues returns n due offsets spaced by period, starting at
// offset.
func periodicDues(n int, period, offset time.Duration) []time.Duration {
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = offset + time.Duration(i)*period
	}
	return dues
}

// runOpen sends one request per due offset, open loop: a generator
// releases request i at its due time whatever the state of earlier
// requests, and workers goroutines — one per client connection — send
// them in order. do reports whether request i succeeded. Latency is
// measured from the due time, so queueing behind a stall counts.
func runOpen(dues []time.Duration, length time.Duration, workers int, do func(i int, due time.Time) bool) *openPhase {
	p := &openPhase{results: make([]openResult, len(dues)), lateness: make([]float64, len(dues)), length: length}
	// Sized to the number of sends: the generator never blocks, so its
	// lateness measures only the scheduler, not the workers.
	queue := make(chan int, len(dues))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				sent := time.Since(start)
				ok := do(i, start.Add(dues[i]))
				p.results[i] = openResult{due: dues[i], sent: sent, done: time.Since(start), ok: ok}
			}
		}()
	}
	for i, d := range dues {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		p.lateness[i] = ms(time.Since(start) - d)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return p
}

// latencies returns each request's due-to-done time in ms; a failed
// request counts as +Inf, beyond any limit.
func (p *openPhase) latencies() []float64 {
	out := make([]float64, len(p.results))
	for i, r := range p.results {
		if r.ok {
			out[i] = ms(r.done - r.due)
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// queueMs returns each request's due-to-sent wait in ms.
func (p *openPhase) queueMs() []float64 {
	out := make([]float64, len(p.results))
	for i, r := range p.results {
		out[i] = ms(r.sent - r.due)
	}
	return out
}

// backlog is the time-averaged number of requests that were due but
// not yet sent over [a, b).
func (p *openPhase) backlog(a, b time.Duration) float64 {
	var sum time.Duration
	for _, r := range p.results {
		lo, hi := max(r.due, a), min(r.sent, b)
		if hi > lo {
			sum += hi - lo
		}
	}
	return float64(sum) / float64(b-a)
}

// validity reports the generator's lateness and the client backlog in
// the first and last fifth of the phase. A phase whose generator fell
// behind, or whose backlog grew, is invalid: its latencies describe
// the benchmark, not the server.
type validity struct {
	LatenessP90Ms float64 `json:"latenessP90Ms"`
	LatenessP99Ms float64 `json:"latenessP99Ms"`
	LatenessMaxMs float64 `json:"latenessMaxMs"`
	BacklogStart  float64 `json:"backlogStart"`
	BacklogEnd    float64 `json:"backlogEnd"`
	Valid         bool    `json:"valid"`
	Reason        string  `json:"reason,omitempty"`
}

// Limits on open-loop validity. On two cores busy with queries, the
// generator's timer can wait a scheduler time slice (10ms) or a stalled
// host for a processor now and then; lateness that persists across a
// tenth of the requests means it fell behind.
const (
	maxLatenessP90Ms = 50.0
	// backlogSlack is how far the end-of-phase backlog may exceed the
	// start before the phase counts as falling behind.
	backlogSlack = 4.0
)

func (p *openPhase) validity(workers int) validity {
	fifth := p.length / 5
	v := validity{
		LatenessP90Ms: quantile(p.lateness, 0.9),
		LatenessP99Ms: quantile(p.lateness, 0.99),
		LatenessMaxMs: quantile(p.lateness, 1),
		BacklogStart:  p.backlog(0, fifth),
		BacklogEnd:    p.backlog(p.length-fifth, p.length),
		Valid:         true,
	}
	switch {
	case v.LatenessP90Ms > maxLatenessP90Ms:
		v.Valid, v.Reason = false, "generator fell behind its schedule"
	case v.BacklogEnd > 2*v.BacklogStart+backlogSlack+float64(workers):
		v.Valid, v.Reason = false, "client backlog grew over the phase"
	}
	return v
}

// closedPhase is the outcome of one closed-loop phase.
type closedPhase struct {
	ok, failed int
	done       []time.Duration // completion times of the successes
}

// runClosed runs workers closed-loop clients until they have sent n
// requests between them, or until limit has passed: each sends its
// next request as soon as the previous one answers. A fixed count
// keeps the work — and what it leaves in memory — the same however
// fast the system runs; the limit bounds the run if it stalls. do gets
// the worker and the request's index in 0..n-1.
func runClosed(workers, n int, limit time.Duration, do func(w, i int) bool) closedPhase {
	var mu sync.Mutex
	var out closedPhase
	var wg sync.WaitGroup
	var next atomic.Int64
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < limit {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				ok := do(w, i)
				at := time.Since(start)
				mu.Lock()
				if ok {
					out.ok++
					out.done = append(out.done, at)
				} else {
					out.failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out.done, func(i, j int) bool { return out.done[i] < out.done[j] })
	return out
}

// rate is the phase's capacity in successes per second: the rate over
// every run of window consecutive completions, taken at the 75th
// percentile. On a shared host, stalls only ever slow a window down,
// so an upper quantile tracks what the system sustains and moves less
// with the neighbours than the mean does. window should span one cycle
// of the request mix.
func (c closedPhase) rate(window int) float64 {
	n := len(c.done)
	if n < 2 {
		return 0
	}
	if n <= 2*window {
		return float64(n-1) / (c.done[n-1] - c.done[0]).Seconds()
	}
	rates := make([]float64, 0, n-window)
	for k := 0; k+window < n; k++ {
		rates = append(rates, float64(window)/(c.done[k+window]-c.done[k]).Seconds())
	}
	return quantile(rates, 0.75)
}

// Runtime metrics the benchmark reads from outside the program.
const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU    = "/cpu/classes/total:cpu-seconds"
)

// runtimeCounters is a reading of the cumulative runtime counters.
type runtimeCounters struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// heapSampler samples the Go heap in use every 5ms while it runs.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: mHeapObjects}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64())/1e6)
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap in MB, taken as
// the 95th percentile of the samples (so one unlucky GC cycle does not
// set it), and the absolute maximum.
func (h *heapSampler) finish() (peak, max float64) {
	close(h.stop)
	<-h.done
	return quantile(h.samples, 0.95), quantile(h.samples, 1)
}
