package main

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"strconv"
	"strings"
	"time"

	"dptrace/internal/dpclient"
	"dptrace/internal/ingest"
	"dptrace/internal/trace"
)

// Operators whose timings the per-layer summary reports.
var layerOps = []string{"where", "select", "selectmany", "groupby", "join", "distinct", "partition", "fused"}

// layerMetrics summarises a traced pass into the per-layer metrics.
// untraced is the same workload measured without tracing, for the
// overhead.
func layerMetrics(ctx context.Context, m, untraced *measurement, tr *tracer) map[string]float64 {
	out := map[string]float64{}
	if m.live != nil {
		// Direct calls into the codecs, after the load so they do not
		// disturb it.
		directCodecs(tr, m.live.senders)
	}
	spans, events := tr.snapshot()
	children := map[int64][]span{}
	byName := map[string][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	durs := func(name string, keep func(span) bool) []float64 {
		var v []float64
		for _, s := range byName[name] {
			if keep == nil || keep(s) {
				v = append(v, ms(s.dur()))
			}
		}
		return v
	}

	// dpclient + transport.
	var queue []float64
	if m.scan != nil {
		queue = m.scan.queueMs()
	} else if m.live != nil && m.live.queries != nil {
		queue = m.live.queries.queueMs()
	}
	out["dpclient.queue_ms.p50"] = median(queue)
	var wire, reqBytes, respBytes []float64
	for _, rt := range byName["client.roundtrip"] {
		if rt.Kind != "query" {
			continue
		}
		reqBytes = append(reqBytes, float64(rt.Bytes))
		respBytes = append(respBytes, float64(rt.Resp))
		for _, h := range children[rt.ID] {
			if strings.HasPrefix(h.Name, "handler.") {
				wire = append(wire, ms(rt.dur()-h.dur()))
			}
		}
	}
	out["dpclient.wire_ms.p50"] = median(wire)
	out["dpclient.req_bytes"] = mean(reqBytes)
	out["dpclient.resp_bytes"] = mean(respBytes)

	// dpserver.
	hq := durs("handler.query", nil)
	hi := durs("handler.ingest", nil)
	out["dpserver.handler_ms.query.p50"] = quantile(hq, 0.5)
	out["dpserver.handler_ms.query.p90"] = quantile(hq, 0.9)
	out["dpserver.handler_ms.ingest.p50"] = quantile(hi, 0.5)
	out["dpserver.handler_ms.ingest.p90"] = quantile(hi, 0.9)
	var overhead, unattributed []float64
	for _, h := range byName["handler.query"] {
		kids := children[h.ID]
		for _, k := range kids {
			if k.Name == "core.exec" {
				overhead = append(overhead, ms(h.dur()-k.dur()))
			}
		}
		if len(kids) > 0 {
			unattributed = append(unattributed, ms(selfTime(h, descendants(h.ID, children))))
		}
	}
	out["dpserver.overhead_ms.p50"] = median(overhead)
	counters := serverCounters(ctx, m.sys)
	out["dpserver.idem_hit_ratio"] = ratio(counters["dp_idem_hits_total"], counters["dp_idem_hits_total"]+counters["dp_idem_misses_total"])
	requests := float64(len(hq) + len(hi))
	out["dpserver.shed_ratio"] = ratio(counters["dp_shed_total"], requests)

	// obs.
	out["obs.events_per_request"] = ratio(float64(tr.eventCount.Load()), requests)
	out["obs.event_bytes_per_request"] = ratio(float64(tr.eventBytes.Load()), requests)

	// core, sketch.
	execByKind := map[string][]float64{}
	opMs := map[string][]float64{}
	var ops, parallel int
	var recordsIn []float64
	for _, ev := range events {
		execByKind[ev.Kind] = append(execByKind[ev.Kind], ev.DurationMs)
		if ev.Profile == nil {
			continue
		}
		maxIn := 0.0
		fused := false
		for _, op := range ev.Profile.Ops {
			ops++
			if op.Strategy == "parallel" {
				parallel++
			}
			if op.Strategy == "fused" {
				fused = true
			} else {
				opMs[op.Op] = append(opMs[op.Op], float64(op.DurationNs)/1e6)
			}
			maxIn = math.Max(maxIn, op.RecordsIn)
		}
		if fused {
			// A fused chain does its work inside the aggregation sink.
			for _, a := range ev.Profile.Aggs {
				opMs["fused"] = append(opMs["fused"], float64(a.DurationNs)/1e6)
			}
		}
		recordsIn = append(recordsIn, maxIn)
	}
	for op, v := range tr.ops {
		opMs[op] = append(opMs[op], v...)
		ops += len(v)
	}
	parallel += tr.parallelOps
	for _, k := range scanKinds {
		out["core.exec_ms."+k+".p50"] = median(execByKind[k])
	}
	for _, op := range layerOps {
		out["core.op_ms."+op+".p50"] = median(opMs[op])
	}
	out["core.parallel_op_ratio"] = ratio(float64(parallel), float64(ops))
	out["core.records_in_per_query"] = mean(recordsIn)

	// noise: per executed query or standing window.
	executions := float64(len(events)) + float64(tr.windowEvents.Load())
	out["noise.draws_per_query"] = ratio(float64(tr.noiseDraws.Load()), executions)
	out["noise.busy_us_per_query"] = ratio(float64(tr.noiseBusyNs.Load())/1e3, executions)

	// ledger (the primary's).
	pf := tr.fs("primary")
	out["ledger.appends_per_request"] = ratio(float64(pf.walWrites.Load()), requests)
	out["ledger.wal_bytes_per_request"] = ratio(float64(pf.walBytes.Load()), requests)
	out["ledger.fsyncs_per_request"] = ratio(float64(pf.fsyncs.Load()), requests)
	fs := durs("primary.ledger.fsync", func(s span) bool { return strings.HasSuffix(s.Kind, ".wal") })
	out["ledger.fsync_ms.p50"] = quantile(fs, 0.5)
	out["ledger.fsync_ms.p90"] = quantile(fs, 0.9)
	out["ledger.snapshot_ms"] = median(durs("primary.ledger.snapshot", nil))
	out["ledger.write_amp"] = ratio(float64(pf.walBytes.Load()+pf.otherBytes.Load()), float64(pf.walBytes.Load()))
	out["ledger.busy_share"] = ratio(float64(pf.busyNs.Load()), float64(m.wall))

	// repl.
	acks := durs("repl.ack", nil)
	out["repl.ack_rtt_ms.p50"] = quantile(acks, 0.5)
	out["repl.ack_rtt_ms.p90"] = quantile(acks, 0.9)
	out["repl.bytes_per_event"] = ratio(float64(tr.replBytes.Load()), float64(tr.replEvents.Load()))
	out["repl.follower_apply_ms.p50"] = median(durs("repl.follower_apply", nil))
	out["repl.follower_fsync_ms.p50"] = median(durs("follower.ledger.fsync", func(s span) bool { return strings.HasSuffix(s.Kind, ".wal") }))
	out["repl.lag_seq_max"] = float64(tr.lagMax.Load())

	// ingest, trace.
	for _, enc := range []string{"dptr", "ndjson"} {
		out["ingest.decode_ms_per_batch."+enc] = median(durs("ingest.decode", func(s span) bool { return s.Kind == enc }))
		out["trace.encode_ms_per_batch."+enc] = median(durs("trace.encode", func(s span) bool { return s.Kind == enc }))
	}
	liveSys := m.sys
	if m.probe != nil {
		liveSys = m.probe
	}
	ist := liveSys.srv.IngestStats()
	out["ingest.shed_ratio"] = ratio(float64(ist.ShedBatches), float64(ist.AdmittedBatches+ist.ShedBatches))
	out["ingest.peak_bytes_in_flight"] = float64(ist.PeakBytesInFlight)

	// standing.
	sst := liveSys.srv.StandingStats()
	out["standing.fire_ms.p50"] = ms(sst.FireP50)
	out["standing.fire_ms.p99"] = ms(sst.FireP99)
	out["standing.windows_per_batch"] = ratio(float64(sst.Windows), float64(ist.AppliedBatches))

	// experiments.
	for _, name := range driverNames() {
		out["experiments."+name+"_s"] = 0
	}
	for _, d := range m.drivers {
		out["experiments."+d.name+"_s"] = d.secs
	}

	// Go runtime.
	out["runtime.alloc_bytes_per_op"] = ratio(m.rt1.allocBytes-m.rt0.allocBytes, float64(m.requests))
	out["runtime.gc_cpu_share"] = ratio(m.rt1.gcCPU-m.rt0.gcCPU, m.rt1.totalCPU-m.rt0.totalCPU)

	// Tracing itself: the traced pass against the untraced one on the
	// workload's headline number, and the handler time of spending
	// requests that no traced child accounts for.
	head := m.headline
	out["tracing.overhead_share"] = ratio(m.e2e[head]-untraced.e2e[head], untraced.e2e[head])
	out["tracing.unattributed_ms.p50"] = median(unattributed)
	out["tracing.spans"] = float64(len(spans))
	return out
}

// descendants returns every span below id.
func descendants(id int64, children map[int64][]span) []span {
	var out []span
	for _, c := range children[id] {
		out = append(out, c)
		out = append(out, descendants(c.ID, children)...)
	}
	return out
}

// directCodecs times the trace encoders and ingest.Decode directly on
// every batch the senders used, in both encodings.
func directCodecs(tr *tracer, senders []*sender) {
	for _, s := range senders {
		for _, batch := range s.pool {
			var dptr, ndjson []byte
			tr.direct("trace.encode", "dptr", func() {
				var buf bytes.Buffer
				_ = trace.WritePackets(&buf, batch)
				dptr = buf.Bytes()
			})
			tr.direct("trace.encode", "ndjson", func() { ndjson = trace.MarshalPacketsNDJSON(batch) })
			tr.direct("ingest.decode", "dptr", func() { _, _ = ingest.Decode(ingest.KindPacket, ingest.ContentTypeDPTR, dptr) })
			tr.direct("ingest.decode", "ndjson", func() { _, _ = ingest.Decode(ingest.KindPacket, ingest.ContentTypeNDJSON, ndjson) })
		}
	}
}

// serverCounters reads the server's counters from /v1/metrics, summed
// over labels.
func serverCounters(ctx context.Context, sys *system) map[string]float64 {
	out := map[string]float64{}
	text, err := dpclient.New(sys.base, "auditor").MetricsText(ctx)
	if err != nil {
		return out
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
			if j := strings.LastIndexByte(line, ' '); j >= 0 {
				rest = line[j+1:]
			}
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// sampleLag records the follower's replication lag — the primary's
// committed seq less the follower's applied seq — every millisecond
// until stop is closed.
func sampleLag(tr *tracer, sys *system, stop <-chan struct{}) {
	if tr == nil || sys == nil || sys.follower == nil {
		return
	}
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			lag := int64(sys.led.CommittedSeq()) - int64(sys.follower.Applied())
			if lag > tr.lagMax.Load() {
				tr.lagMax.Store(lag)
			}
		}
	}
}
