package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"dptrace/internal/dpclient"
	"dptrace/internal/ledger"
)

// auditTotals checks a dataset's total spend in /v1/datasets and in a
// read-only replay of the primary's ledger directory against want,
// and each analyst's replayed spend against perAnalyst.
func auditTotals(ctx context.Context, sys *system, dataset string, want float64, perAnalyst map[string]float64) []string {
	var out []string
	infos, err := dpclient.New(sys.base, "auditor").Datasets(ctx)
	if err != nil {
		return append(out, fmt.Sprintf("datasets: %v", err))
	}
	found := false
	for _, info := range infos {
		if info.Name != dataset {
			continue
		}
		found = true
		if math.Abs(info.TotalSpent-want) > 1e-6 {
			out = append(out, fmt.Sprintf("%s: /v1/datasets TotalSpent %.6f, acknowledged %.6f", dataset, info.TotalSpent, want))
		}
	}
	if !found {
		out = append(out, fmt.Sprintf("%s missing from /v1/datasets", dataset))
	}
	st, _, err := ledger.Replay(filepath.Join(sys.dir, "primary"), 0)
	if err != nil {
		return append(out, fmt.Sprintf("ledger replay: %v", err))
	}
	ds := st.Datasets[dataset]
	if ds == nil {
		return append(out, fmt.Sprintf("%s missing from the replayed ledger", dataset))
	}
	if math.Abs(ds.TotalSpent-want) > 1e-6 {
		out = append(out, fmt.Sprintf("%s: replayed ledger TotalSpent %.6f, acknowledged %.6f", dataset, ds.TotalSpent, want))
	}
	for name, w := range perAnalyst {
		if got := ds.Spent[name]; math.Abs(got-w) > 1e-6 {
			out = append(out, fmt.Sprintf("%s on %s: replayed ledger %.6f, acknowledged %.6f", name, dataset, got, w))
		}
	}
	return out
}

// auditStanding reconciles the standing queries' window charges with
// the spend their registrations report and with /v1/budget for the
// monitoring analyst. It returns the monitor's total spend.
func auditStanding(ctx context.Context, sys *system) (float64, []string) {
	var out []string
	c := dpclient.New(sys.base, monitorAnalyst)
	infos, err := c.ListStanding(ctx, liveDataset)
	if err != nil {
		return 0, []string{fmt.Sprintf("standing list: %v", err)}
	}
	var registered float64
	for _, info := range infos {
		registered += info.Spent
		res, err := c.StandingResults(ctx, liveDataset, info.ID, 0, 0)
		if err != nil {
			out = append(out, fmt.Sprintf("standing %s results: %v", info.ID, err))
			continue
		}
		windows, err := res.Decoded()
		if err != nil {
			out = append(out, fmt.Sprintf("standing %s decode: %v", info.ID, err))
			continue
		}
		if len(windows) == 0 {
			out = append(out, fmt.Sprintf("standing %s fired no windows", info.ID))
			continue
		}
		// The ring may have evicted early windows; the charges it
		// holds must add up to the spend it spans.
		var charged float64
		for _, w := range windows {
			if w.Outcome != "ok" {
				out = append(out, fmt.Sprintf("standing %s window %d: %s %s", info.ID, w.Window, w.Outcome, w.Error))
			}
			charged += w.Charged
		}
		first, last := windows[0], windows[len(windows)-1]
		if span := last.Spent - (first.Spent - first.Charged); math.Abs(charged-span) > 1e-6 {
			out = append(out, fmt.Sprintf("standing %s: window charges %.6f, spend span %.6f", info.ID, charged, span))
		}
		if math.Abs(last.Spent-info.Spent) > 1e-6 {
			out = append(out, fmt.Sprintf("standing %s: last window %.6f spent, registration %.6f", info.ID, last.Spent, info.Spent))
		}
	}
	spent, _, err := c.Budget(ctx, liveDataset)
	if err != nil {
		return registered, append(out, fmt.Sprintf("monitor budget: %v", err))
	}
	if math.Abs(spent-registered) > 1e-6 {
		out = append(out, fmt.Sprintf("monitor: /v1/budget %.6f, standing registrations %.6f", spent, registered))
	}
	out = append(out, auditTotals(ctx, sys, liveDataset, registered, map[string]float64{monitorAnalyst: registered})...)
	return registered, out
}

// auditReplica checks that the follower's ledger matches the
// primary's with zero budget drift.
func auditReplica(sys *system) []string {
	if sys.follower == nil {
		return nil
	}
	if err := sys.waitFollower(5 * time.Second); err != nil {
		return []string{err.Error()}
	}
	rep, err := ledger.Diff(filepath.Join(sys.dir, "primary"), filepath.Join(sys.dir, "follower"), 0)
	if err != nil {
		return []string{fmt.Sprintf("ledger diff: %v", err)}
	}
	var out []string
	if !rep.Clean() {
		out = append(out, fmt.Sprintf("ledger diff: histories diverge at seq %d", rep.Diverged.Seq))
	}
	if rep.OnlyA != 0 || rep.OnlyB != 0 || rep.MaxSpentDelta() != 0 {
		out = append(out, fmt.Sprintf("ledger diff: %d/%d unshared events, max spend drift %g", rep.OnlyA, rep.OnlyB, rep.MaxSpentDelta()))
	}
	return out
}
