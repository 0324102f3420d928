package dpserver

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"dptrace/internal/obs"
	"dptrace/internal/obs/qlog"
)

// getJSON decodes a GET response body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestTraceCarriesNoRecordCounts pins the §S31 invariant on the
// analyst's span tree: a filtered count's "where" row out-count IS the
// exact answer the noisy value protects, so "trace":true must not
// carry record counts.
func TestTraceCarriesNoRecordCounts(t *testing.T) {
	_, ts := obsServer(t, math.Inf(1), math.Inf(1))
	port := 80
	resp, body := postV1(t, ts.URL+"/v1/query", QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.5,
		Filter: &Filter{DstPort: &port}, Trace: true,
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Trace == nil || len(qr.Trace.Children) == 0 {
		t.Fatalf("trace:true returned no span tree: %s", body)
	}
	var walk func(*obs.Span)
	walk = func(sp *obs.Span) {
		for _, k := range []string{"records_in", "records_out"} {
			if v, ok := sp.Labels[k]; ok {
				t.Errorf("analyst-facing span %q carries %s=%s", sp.Name, k, v)
			}
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(qr.Trace)
}

// TestOneRecordPerQuery: every per-query surface is a view of one
// profile, so for one query they name the same operators in the same
// order and the same charged ε.
func TestOneRecordPerQuery(t *testing.T) {
	_, ts := obsServer(t, math.Inf(1), math.Inf(1))
	resp, body := postV1(t, ts.URL+"/v1/query", QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "hosts", Epsilon: 0.2,
		MinBytes: 1024, Trace: true,
	}, map[string]string{ExplainHeader: "true"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	const charged = 0.4 // GroupBy doubles the 0.2 requested
	wantOps := []string{"where", "groupby", "where"}

	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	// X-DP-Explain: the redacted profile.
	var explained []string
	for _, op := range qr.Profile.Ops {
		explained = append(explained, op.Op)
	}
	if fmt.Sprint(explained) != fmt.Sprint(wantOps) || qr.Profile.TotalCharged() != charged {
		t.Errorf("explain ops %v charged %v", explained, qr.Profile.TotalCharged())
	}

	// /debug/traces (owner-side) and the analyst's trace: same tree
	// shape, same charged ε on the aggregate span.
	var spans []*obs.Span
	getJSON(t, ts.URL+"/v1/debug/traces?n=1", &spans)
	for name, root := range map[string]*obs.Span{"debug/traces": spans[0], "trace": qr.Trace} {
		var names []string
		for _, c := range root.Children {
			names = append(names, c.Name)
		}
		if fmt.Sprint(names) != fmt.Sprint(append(wantOps, "aggregate:count")) {
			t.Errorf("%s children %v", name, names)
		}
		if got := root.Children[3].Labels["epsilon_charged"]; got != "0.4" {
			t.Errorf("%s aggregate epsilon_charged %q, want 0.4", name, got)
		}
	}

	// /debug/queries: the wide event and its unredacted profile.
	var events []qlog.Event
	getJSON(t, ts.URL+"/v1/debug/queries?n=1", &events)
	if got := fieldValue(events[0], "charged_epsilon"); fmt.Sprint(got) != "0.4" {
		t.Errorf("event charged_epsilon %v", got)
	}
	raw, _ := json.Marshal(fieldValue(events[0], "profile"))
	var prof obs.Profile
	if err := json.Unmarshal(raw, &prof); err != nil {
		t.Fatal(err)
	}
	var evOps []string
	var whereIn float64
	for _, op := range prof.Ops {
		evOps = append(evOps, op.Op)
		if op.Op == "where" {
			whereIn += op.RecordsIn
		}
	}
	if fmt.Sprint(evOps) != fmt.Sprint(wantOps) || prof.TotalCharged() != charged {
		t.Errorf("event profile ops %v charged %v", evOps, prof.TotalCharged())
	}

	// /audit: the journalled entry.
	var audit []AuditEntry
	getJSON(t, ts.URL+"/v1/audit", &audit)
	if len(audit) != 1 || audit[0].Charged != charged || audit[0].Outcome != "ok" {
		t.Errorf("audit %+v", audit)
	}

	// Engine metrics: the profile's rows, replayed.
	text := scrapeText(t, ts)
	for _, want := range []string{
		`dp_op_duration_seconds_count{op="where"} 2`,
		`dp_op_duration_seconds_count{op="groupby"} 1`,
		`dp_agg_total{agg="count",outcome="ok"} 1`,
		fmt.Sprintf(`dp_op_records_in_total{op="where"} %d`, int64(whereIn)),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestConcurrentChargeAttributionExact: per-query ε attribution reads
// the query's own metered agent, so concurrent queries by one analyst
// cannot count each other's charges — the audit trail sums to exactly
// what the policy spent.
func TestConcurrentChargeAttributionExact(t *testing.T) {
	s, ts := obsServer(t, math.Inf(1), math.Inf(1))
	const n = 40
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body, err := tryPostV1(ts.URL+"/v1/query", QueryRequest{
				Analyst: "alice", Dataset: "hotspot", Query: "hosts", Epsilon: 0.01,
			})
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("query: %v %s", err, body)
			}
		}()
	}
	wg.Wait()
	var sum float64
	entries := s.Audit()
	for _, e := range entries {
		sum += e.Charged
	}
	spent := s.datasets["hotspot"].policy.SpentBy("alice")
	if len(entries) != n || math.Abs(sum-spent) > 1e-9 {
		t.Fatalf("%d audit entries charge %v in sum, policy spent %v", len(entries), sum, spent)
	}
}
