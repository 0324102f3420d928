package obs

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("requests_total", "endpoint", "/query")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	if again := reg.Counter("requests_total", "endpoint", "/query"); again != c {
		t.Fatal("same name+labels should return the same counter")
	}
	if other := reg.Counter("requests_total", "endpoint", "/audit"); other == c {
		t.Fatal("different labels should return a different counter")
	}

	g := reg.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}

	reg.GaugeFunc("live", func() float64 { return 42 })
	snap := reg.Snapshot()
	found := false
	for _, p := range snap.Gauges {
		if p.Name == "live" && p.Value == 42 {
			found = true
		}
	}
	if !found {
		t.Fatalf("gauge func missing from snapshot: %+v", snap.Gauges)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-55.65) > 1e-9 {
		t.Fatalf("sum = %v, want 55.65", h.Sum())
	}
	snap := reg.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(snap.Histograms))
	}
	hp := snap.Histograms[0]
	// Cumulative: ≤0.1 holds 2 (0.05 and the boundary 0.1), ≤1 holds
	// 3, ≤10 holds 4, +Inf holds all 5.
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if hp.Buckets[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, hp.Buckets[i], w, hp.Buckets)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dp_agg_total", "agg", "count", "outcome", "ok").Add(4)
	reg.Counter("dp_agg_total", "agg", "count", "outcome", "refused").Inc()
	reg.Gauge("dp_budget_spent", "dataset", "hotspot").Set(1.5)
	reg.GaugeFunc("dp_budget_remaining", func() float64 { return math.Inf(1) }, "dataset", "hotspot")
	reg.Histogram("req_seconds", []float64{0.5}, "endpoint", "/query").Observe(0.25)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE dp_agg_total counter",
		`dp_agg_total{agg="count",outcome="ok"} 4`,
		`dp_agg_total{agg="count",outcome="refused"} 1`,
		"# TYPE dp_budget_spent gauge",
		`dp_budget_spent{dataset="hotspot"} 1.5`,
		`dp_budget_remaining{dataset="hotspot"} +Inf`,
		"# TYPE req_seconds histogram",
		`req_seconds_bucket{endpoint="/query",le="0.5"} 1`,
		`req_seconds_bucket{endpoint="/query",le="+Inf"} 1`,
		`req_seconds_sum{endpoint="/query"} 0.25`,
		`req_seconds_count{endpoint="/query"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\ngot:\n%s", want, out)
		}
	}
	// A family's TYPE line must appear exactly once.
	if strings.Count(out, "# TYPE dp_agg_total counter") != 1 {
		t.Errorf("TYPE line repeated:\n%s", out)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "k", `odd"value`+"\n").Inc()
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatalf("snapshot JSON invalid: %v\n%s", err, b.String())
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 1 {
		t.Fatalf("bad counters: %+v", snap.Counters)
	}
	if snap.Counters[0].Labels["k"] == "" {
		t.Fatalf("label lost: %+v", snap.Counters[0].Labels)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				reg.Counter("c_total", "g", strconv.Itoa(g%2)).Inc()
				reg.Gauge("g").Add(1)
				reg.Histogram("h", []float64{1, 2}).Observe(float64(i % 3))
				if i%100 == 0 {
					reg.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := reg.Snapshot()
	total := 0.0
	for _, c := range snap.Counters {
		total += c.Value
	}
	if total != 8000 {
		t.Fatalf("counter total = %v, want 8000", total)
	}
	if snap.Histograms[0].Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", snap.Histograms[0].Count)
	}
}

func TestMetricsRecorder(t *testing.T) {
	reg := NewRegistry()
	rec := NewMetricsRecorder(reg)
	rec.OpDone("where", 1e6, 100, 40, 0)
	rec.OpDone("where", 2e6, 40, 40, 0)
	rec.AggDone("count", OutcomeOK, 0.1, 5e5)
	rec.AggDone("count", OutcomeRefused, 0.1, 0)

	if got := reg.Counter("dp_op_records_in_total", "op", "where").Value(); got != 140 {
		t.Fatalf("records in = %v, want 140", got)
	}
	if got := reg.Counter("dp_agg_total", "agg", "count", "outcome", "ok").Value(); got != 1 {
		t.Fatalf("ok aggs = %v, want 1", got)
	}
	if got := reg.Counter("dp_agg_total", "agg", "count", "outcome", "refused").Value(); got != 1 {
		t.Fatalf("refused aggs = %v, want 1", got)
	}
	// Refusals must not count as spend.
	if got := reg.Counter("dp_budget_spend_total").Value(); got != 0.1 {
		t.Fatalf("spend = %v, want 0.1", got)
	}
	h := reg.Histogram("dp_op_duration_seconds", DurationBuckets(), "op", "where")
	if h.Count() != 2 {
		t.Fatalf("op duration observations = %d, want 2", h.Count())
	}
}

// TestLabelEscapingRoundTrip pins the Prometheus text exposition
// escaping rules — backslash, double-quote, and line feed escaped
// exactly once — and that labelMap recovers the original value.
func TestLabelEscapingRoundTrip(t *testing.T) {
	values := []string{
		`plain`,
		`back\slash`,
		`quo"te`,
		"new\nline",
		`a\nb`,         // escaped backslash then literal "nb" — not a newline
		`\\`,           // two backslashes
		`\"`,           // backslash then quote
		"mix\\\"\nend", // all three specials
		`trailing\`,    // ends on a backslash
	}
	for _, v := range values {
		reg := NewRegistry()
		reg.Counter("m_total", "k", v).Inc()

		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		line := ""
		for _, l := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(l, "m_total{") {
				line = l
			}
		}
		if line == "" {
			t.Fatalf("no sample line for %q:\n%s", v, b.String())
		}
		// The exposition value must contain no raw quote, backslash, or
		// newline inside the quoted label (only escape sequences).
		inner := strings.TrimSuffix(strings.TrimPrefix(line, `m_total{k="`), `"} 1`)
		for i := 0; i < len(inner); i++ {
			switch inner[i] {
			case '\n':
				t.Errorf("raw newline in exposition of %q: %q", v, inner)
			case '"':
				t.Errorf("unescaped quote in exposition of %q: %q", v, inner)
			case '\\':
				i++ // escape sequence: consumes the next byte
				if i >= len(inner) || (inner[i] != '\\' && inner[i] != '"' && inner[i] != 'n') {
					t.Errorf("bad escape in exposition of %q: %q", v, inner)
				}
			}
		}
		// And the canonical key must decode back to the original value.
		snap := reg.Snapshot()
		if len(snap.Counters) != 1 {
			t.Fatalf("counters = %+v", snap.Counters)
		}
		if got := snap.Counters[0].Labels["k"]; got != v {
			t.Errorf("round trip: got %q, want %q (line %q)", got, v, line)
		}
	}
}

func TestEscapeLabelDistinctValues(t *testing.T) {
	// `a\nb` (backslash-n-b) and "a\nb" (newline) must not collide into
	// one metric instance after escaping.
	reg := NewRegistry()
	reg.Counter("m_total", "k", `a\nb`).Inc()
	reg.Counter("m_total", "k", "a\nb").Inc()
	if got := len(reg.Snapshot().Counters); got != 2 {
		t.Fatalf("distinct values collided: %d instances", got)
	}
}
