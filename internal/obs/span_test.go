package obs

import (
	"encoding/json"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	p := &Profile{
		Ops: []ProfileOp{
			{Op: "where", DurationNs: int64(time.Millisecond), Strategy: StrategySequential},
			{Op: "groupby", DurationNs: int64(2 * time.Millisecond), RecordsIn: 10, Strategy: StrategySequential},
		},
	}
	start := time.Unix(100, 0)
	root := p.Span("query", start, 5*time.Millisecond, nil)

	if len(root.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(root.Children))
	}
	c1, c2 := root.Children[0], root.Children[1]
	if root.Duration != 5*time.Millisecond || c1.Duration != time.Millisecond {
		t.Fatalf("durations root %v, c1 %v", root.Duration, c1.Duration)
	}
	// Children are laid end to end from the root's start.
	if !c1.Start.Equal(start) || !c2.Start.Equal(start.Add(time.Millisecond)) {
		t.Fatalf("child starts %v, %v", c1.Start, c2.Start)
	}
	if c2.Labels["records_in"] != "10" {
		t.Fatalf("labels = %v", c2.Labels)
	}

	// Durations must come out as nanoseconds.
	b, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Name     string `json:"name"`
		Children []struct {
			Name       string `json:"name"`
			DurationNs int64  `json:"durationNs"`
		} `json:"children"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Name != "query" || len(decoded.Children) != 2 {
		t.Fatalf("bad JSON tree: %s", b)
	}
	if decoded.Children[0].DurationNs != int64(time.Millisecond) {
		t.Fatalf("child duration not serialized: %s", b)
	}
}

func TestProfileSpan(t *testing.T) {
	charged := 0.0
	r := NewProfileRecorder(func() float64 { return charged })
	r.OpDone("where", 2*time.Millisecond, 100, 60, 0)
	r.OpDone("groupby", time.Millisecond, 60, 12, 4)
	r.OpDone("select", 0, 12, 12, FusedWorkers)
	charged = 0.2 // GroupBy doubles the charge
	r.AggDone("count", OutcomeOK, 0.1, 500*time.Microsecond)
	p := r.Profile()
	root := p.Span("query:hosts", time.Now(), time.Millisecond, map[string]string{"analyst": "alice"})

	if root.Name != "query:hosts" || root.Labels["analyst"] != "alice" {
		t.Fatalf("root = %+v", root)
	}
	names := []string{"where", "groupby", "select", "aggregate:count"}
	if len(root.Children) != len(names) {
		t.Fatalf("children = %d, want %d", len(root.Children), len(names))
	}
	for i, want := range names {
		c := root.Children[i]
		if c.Name != want {
			t.Fatalf("child %d = %q, want %q", i, c.Name, want)
		}
		// Zero-duration (fused) rows are still visible spans.
		if c.Duration <= 0 {
			t.Fatalf("child %q duration = %v, want > 0", c.Name, c.Duration)
		}
	}
	if l := root.Children[0].Labels; l["records_out"] != "60" || l["strategy"] != StrategySequential {
		t.Fatalf("op labels = %v", l)
	}
	if l := root.Children[1].Labels; l["workers"] != "4" || l["strategy"] != StrategyParallel {
		t.Fatalf("parallel op labels = %v", l)
	}
	agg := root.Children[3].Labels
	if agg["outcome"] != OutcomeOK || agg["epsilon"] != "0.1" || agg["epsilon_charged"] != "0.2" {
		t.Fatalf("agg labels = %v", agg)
	}

	// A tree rendered from the redacted profile carries no counts.
	for _, c := range p.Redact().Span("q", time.Now(), 1, nil).Children {
		if _, ok := c.Labels["records_in"]; ok {
			t.Fatalf("redacted span %q has records_in: %v", c.Name, c.Labels)
		}
		if _, ok := c.Labels["records_out"]; ok {
			t.Fatalf("redacted span %q has records_out: %v", c.Name, c.Labels)
		}
	}
}
