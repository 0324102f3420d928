package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dptrace/internal/dpclient"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/trace"
)

// queryEpsilon is the ε every analyst query requests.
const queryEpsilon = 0.1

// accuracySigmas is how many noise standard deviations a count or
// srcfreq answer may stray from the exact count.
const accuracySigmas = 20

// qspec is one analyst request.
type qspec struct {
	analyst int
	req     api.QueryRequest
	// replay is the index of the request whose idempotency key this
	// one re-sends, or -1.
	replay int
}

// analysts drives analyst queries against one dataset and keeps what
// the audits need: the ε each analyst was charged for requests the
// server acknowledged, the bodies of re-sent keys, and accuracy
// violations.
type analysts struct {
	tr      *tracer
	dataset string
	clients []*dpclient.Client
	names   []string
	records []trace.Packet
	ids     *atomic.Int64
	// charge is each kind's ε charge for one request, learned from
	// an isolated request during warm-up.
	charge map[string]float64

	mu         sync.Mutex
	expected   map[string]float64 // analyst -> ε charged by acknowledged first sends
	bodies     map[string][]byte  // idempotency key -> first answer
	resent     []resent           // answers to re-sent keys
	violations []string
	attempted  int
	failed     int
}

func newAnalysts(sys *system, dataset string, records []trace.Packet, n, conns int, ids *atomic.Int64) *analysts {
	a := &analysts{
		tr: sys.tr, dataset: dataset, records: records, ids: ids,
		charge: map[string]float64{}, expected: map[string]float64{}, bodies: map[string][]byte{},
	}
	hc := sys.client(conns)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("analyst-%d", i)
		a.names = append(a.names, name)
		a.clients = append(a.clients, dpclient.New(sys.base, name, dpclient.WithHTTPClient(hc)))
	}
	return a
}

func (a *analysts) violate(format string, args ...any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.violations) < 20 {
		a.violations = append(a.violations, fmt.Sprintf(format, args...))
	}
}

// calibrate sends one request of each kind in order from analyst 0,
// untimed, and learns each kind's ε charge from the spend it reports.
// It doubles as the warm-up: every kind runs once before timing.
func (a *analysts) calibrate(ctx context.Context, specs []qspec) error {
	spent := 0.0
	for _, q := range specs {
		res, err := a.clients[0].Query(ctx, q.req)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", q.req.Query, err)
		}
		a.charge[q.req.Query] = res.Spent - spent
		a.expected[a.names[0]] += res.Spent - spent
		spent = res.Spent
	}
	return nil
}

// send issues one request and checks its answer. It reports whether
// the server answered it successfully.
func (a *analysts) send(ctx context.Context, q *qspec) bool {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	capt := &capture{}
	ctx = context.WithValue(ctx, captureKey{}, capt)
	ctx, end := a.tr.clientCall(ctx, a.ids.Add(1))
	res, err := a.clients[q.analyst].Query(ctx, q.req)
	end(q.req.Query)

	a.mu.Lock()
	a.attempted++
	if err != nil {
		a.failed++
		a.mu.Unlock()
		a.violate("%s %s: %v", a.names[q.analyst], q.req.Query, err)
		return false
	}
	key := q.req.IdempotencyKey
	if q.replay >= 0 {
		a.resent = append(a.resent, resent{key: key, body: capt.body})
		a.mu.Unlock()
		return true
	}
	a.bodies[key] = capt.body
	a.expected[a.names[q.analyst]] += a.charge[q.req.Query]
	a.mu.Unlock()

	if exact, ok := a.truth(&q.req); ok {
		if v := res.Values[0]; math.Abs(v-exact) > accuracySigmas*res.NoiseStd {
			a.violate("%s answered %.1f, exact %v, noise std %.2f", q.req.Query, v, exact, res.NoiseStd)
		}
	}
	return true
}

// resent is the answer to a re-sent idempotency key.
type resent struct {
	key  string
	body []byte
}

// truth returns the exact answer of a count or srcfreq request,
// computed from the records the benchmark generated.
func (a *analysts) truth(req *api.QueryRequest) (float64, bool) {
	var key trace.IPv4
	switch req.Query {
	case "count":
	case "srcfreq":
		ip, err := trace.ParseIPv4(req.Key)
		if err != nil {
			return 0, false
		}
		key = ip
	default:
		return 0, false
	}
	n := 0
	for i := range a.records {
		p := &a.records[i]
		if req.Filter.Match(p) && (req.Query == "count" || p.SrcIP == key) {
			n++
		}
	}
	return float64(n), true
}

// audit checks the analysts' acknowledged spend against every surface
// that reports it: /v1/budget per analyst, the dataset's TotalSpent in
// /v1/datasets, and a replay of the primary's ledger directory.
// extraTotal is spend on the dataset by principals outside this set
// (the standing monitor).
func (a *analysts) audit(ctx context.Context, sys *system, extraTotal float64) []string {
	var out []string
	for _, r := range a.resent {
		if first, ok := a.bodies[r.key]; !ok || !bytes.Equal(first, r.body) {
			out = append(out, fmt.Sprintf("re-sent key %s answered %q, first answer was %q", r.key, r.body, first))
		}
	}
	var sum float64
	for i, c := range a.clients {
		want := a.expected[a.names[i]]
		sum += want
		got, _, err := c.Budget(ctx, a.dataset)
		if err != nil {
			out = append(out, fmt.Sprintf("budget %s: %v", a.names[i], err))
			continue
		}
		if math.Abs(got-want) > 1e-6 {
			out = append(out, fmt.Sprintf("%s on %s: /v1/budget says %.6f spent, acknowledged requests charged %.6f", a.names[i], a.dataset, got, want))
		}
	}
	out = append(out, auditTotals(ctx, sys, a.dataset, sum+extraTotal, a.expected)...)
	return out
}
