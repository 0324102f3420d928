package main

import (
	"context"
	"strings"
	"testing"
	"time"
)

// toy is a self-test pass: a second or two per workload, every audit
// on.
func toy(t *testing.T, tr *tracer) pass {
	return pass{seed: 5, seconds: 2 * time.Second, dir: t.TempDir(), tr: tr, toy: true}
}

// TestWorkloadsAtToyScale runs each workload briefly and requires
// every audit to pass and every end-to-end metric to be measured.
func TestWorkloadsAtToyScale(t *testing.T) {
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			m, err := run(context.Background(), toy(t, nil))
			if m != nil && m.sys != nil {
				defer m.sys.close()
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range m.violations {
				t.Errorf("violation: %s", v)
			}
			for k := range e2eUnits {
				if !(m.e2e[k] > 0) {
					t.Errorf("%s not measured", k)
				}
			}
		})
	}
}

// TestSpendingRequestSpansNest checks that one live-monitor spending
// request's spans nest client → handler → ledger write/fsync →
// replication ack, each inside its parent's interval (the ack inside
// the handler's, since the handler waits for it).
func TestSpendingRequestSpansNest(t *testing.T) {
	tr := newTracer()
	m, err := runLiveMonitor(context.Background(), toy(t, tr))
	if m != nil && m.sys != nil {
		defer m.sys.close()
	}
	if err != nil {
		t.Fatal(err)
	}
	spans, _ := tr.snapshot()
	byID := map[int64]span{}
	children := map[int64][]span{}
	for _, s := range spans {
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	inside := func(in, out span) bool { return in.Start >= out.Start && in.End <= out.End }
	for _, h := range spans {
		if h.Name != "handler.query" {
			continue
		}
		rt, ok := byID[h.Parent]
		if !ok || rt.Name != "client.roundtrip" || !inside(h, rt) {
			continue
		}
		call, ok := byID[rt.Parent]
		if !ok || call.Name != "client.call" || !inside(rt, call) {
			continue
		}
		var write, fsync, ack bool
		for _, c := range children[h.ID] {
			switch {
			case c.Name == "primary.ledger.write" && inside(c, h):
				write = true
				for _, a := range children[c.ID] {
					if a.Name == "repl.ack" && inside(a, h) && a.Start >= c.End {
						ack = true
					}
				}
			case c.Name == "primary.ledger.fsync" && inside(c, h):
				fsync = true
			}
		}
		if write && fsync && ack {
			return
		}
	}
	var names []string
	for _, s := range spans[:min(len(spans), 20)] {
		names = append(names, s.Name)
	}
	t.Fatalf("no spending request with nested client → handler → ledger write/fsync → repl ack spans among %d spans (first: %s)",
		len(spans), strings.Join(names, ", "))
}
