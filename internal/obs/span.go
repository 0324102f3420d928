package obs

import (
	"strconv"
	"time"
)

// Span is one timed region of work. A query's execution renders as a
// tree of spans: the root covers the whole request, children cover
// each pipeline operator and the final aggregation. Spans carry only
// operational metadata (names, durations, record counts) — never
// record contents.
type Span struct {
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"durationNs"` // JSON in nanoseconds
	Labels   map[string]string `json:"labels,omitempty"`
	Children []*Span           `json:"children,omitempty"`
}

// Span renders the profile as a span tree: a root named name covering
// [start, start+d) with the given labels, then one child per operator
// in profile order and one "aggregate:<agg>" child per aggregation,
// laid end to end from start. Durations are clamped to ≥1ns so a
// rendered span is always distinguishable from one that never ran
// (fused operators report zero). Operator children carry record-count
// labels only when their row is unredacted, so a tree rendered from
// Redact() is as safe to hand an analyst as the profile itself.
func (p *Profile) Span(name string, start time.Time, d time.Duration, labels map[string]string) *Span {
	root := &Span{Name: name, Start: start, Duration: max(d, 1), Labels: labels}
	if p == nil {
		return root
	}
	at := start
	child := func(name string, ns int64, labels map[string]string) {
		c := &Span{Name: name, Start: at, Duration: max(time.Duration(ns), 1), Labels: labels}
		root.Children = append(root.Children, c)
		at = at.Add(c.Duration)
	}
	for _, op := range p.Ops {
		l := map[string]string{"strategy": op.Strategy}
		if op.Workers >= 2 {
			l["workers"] = strconv.Itoa(op.Workers)
		}
		if !op.Redacted {
			l["records_in"] = formatValue(op.RecordsIn)
			l["records_out"] = formatValue(op.RecordsOut)
		}
		child(op.Op, op.DurationNs, l)
	}
	for _, a := range p.Aggs {
		child("aggregate:"+a.Agg, a.DurationNs, map[string]string{
			"outcome":         a.Outcome,
			"epsilon":         formatValue(a.EpsilonRequested),
			"epsilon_charged": formatValue(a.EpsilonCharged),
		})
	}
	return root
}
