// Command perfbench is the repository's benchmark: it drives dptrace's
// real code paths under three workloads (scan-mix, live-monitor,
// paper-batch), audits every answer and every ε of accounting, and
// prints each end-to-end metric, or with -trace 1 each per-layer
// metric, by name with its unit. See README.md beside this file.
//
//	perfbench -workload scan-mix -seed 1 -seconds 20 -trace 0
//	perfbench compare a.json b.json
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The line before it is the full report (host stamp, per-class request
// counts, open-loop validity, and the metrics), which -report also
// writes to a file for perfbench compare.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// e2eUnits names every end-to-end metric with its unit.
var e2eUnits = map[string]string{
	"setup_s":             "s",
	"query_p50_ms":        "ms",
	"query_p90_ms":        "ms",
	"query_capacity_qps":  "1/s",
	"ingest_ack_p50_ms":   "ms",
	"ingest_ack_p90_ms":   "ms",
	"ingest_capacity_rps": "1/s",
	"window_lag_p50_ms":   "ms",
	"window_lag_p90_ms":   "ms",
	"batch_s":             "s",
	"heap_peak_mb":        "MB",
}

// gated lists the end-to-end metrics the last line carries, the ones
// BENCHMARK.json bounds. The others — latency percentiles and
// closed-loop capacities — moved by more than a quarter between the
// quartiles of ten seeds on a shared two-vCPU host (the neighbours'
// load stretches every hop of a cheap request), so they are reported
// in the report line but not gated.
var gated = []string{"setup_s", "batch_s", "heap_peak_mb"}

// layerUnit infers a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "_us_"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "bytes"):
		return "bytes"
	case strings.Contains(name, "ratio"), strings.Contains(name, "share"), strings.Contains(name, "amp"):
		return "ratio"
	}
	return "count"
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record of a run.
type report struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Seconds    int                    `json:"seconds"`
	Traced     bool                   `json:"traced"`
	Host       host                   `json:"host"`
	Classes    map[string]*classCount `json:"classes"`
	Validity   map[string]validity    `json:"validity"`
	Valid      bool                   `json:"valid"`
	Violations []string               `json:"violations,omitempty"`
	Metrics    map[string]metric      `json:"metrics"`
	Detail     map[string]float64     `json:"detail"`
}

var workloads = map[string]func(context.Context, pass) (*measurement, error){
	"scan-mix":     runScanMix,
	"live-monitor": runLiveMonitor,
	"paper-batch":  runPaperBatch,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "scan-mix, live-monitor or paper-batch")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured seconds per pass")
	traced := flag.Int("trace", 0, "1 runs an untraced and a traced pass and reports the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for ledgers and other run state (removed after the run)")
	reportPath := flag.String("report", "", "also write the full report to this file")
	spansPath := flag.String("spans", "", "traced pass: write every span as JSON lines to this file")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", *workload)
		os.Exit(2)
	}
	dir := filepath.Join(*workdir, "run-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dir)
	rep, res, err := execute(context.Background(), run, *workload, *seed, *seconds, *traced == 1, dir, *spansPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}
	last, _ := json.Marshal(res)
	fmt.Println(string(last))
	if !res.Correct {
		for _, v := range rep.Violations {
			fmt.Fprintln(os.Stderr, "perfbench: violation:", v)
		}
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

// execute runs one workload: an untraced pass, and with traced a
// second, traced pass for the per-layer metrics.
func execute(ctx context.Context, run func(context.Context, pass) (*measurement, error), name string, seed uint64, seconds int, traced bool, dir, spansPath string) (*report, *result, error) {
	p := pass{seed: seed, seconds: time.Duration(seconds) * time.Second, dir: filepath.Join(dir, "untraced")}
	m, err := run(ctx, p)
	if m != nil && m.sys != nil {
		m.sys.close()
		m.sys.remove()
	}
	if err != nil {
		return nil, nil, err
	}
	rep := &report{
		Workload: name, Seed: seed, Seconds: seconds, Traced: traced, Host: hostStamp(),
		Classes: m.classes, Validity: m.validity, Valid: true,
		Violations: m.violations, Metrics: map[string]metric{}, Detail: m.detail,
	}
	for k, u := range e2eUnits {
		rep.Metrics[k] = metric{Value: m.e2e[k], Unit: u}
	}
	res := &result{Metrics: map[string]metric{}}
	for _, k := range gated {
		res.Metrics[k] = rep.Metrics[k]
	}
	if traced {
		tr := newTracer()
		p.tr, p.dir = tr, filepath.Join(dir, "traced")
		tm, err := run(ctx, p)
		if err != nil {
			if tm != nil && tm.sys != nil {
				tm.sys.close()
			}
			return nil, nil, err
		}
		layers := layerMetrics(ctx, tm, m, tr)
		tm.sys.close()
		tm.sys.remove()
		res.Metrics = map[string]metric{}
		for k, v := range layers {
			rep.Metrics[k] = metric{Value: v, Unit: layerUnit(k)}
			res.Metrics[k] = rep.Metrics[k]
		}
		rep.Violations = append(rep.Violations, tm.violations...)
		if spansPath != "" {
			if err := writeSpans(spansPath, tr); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, c := range rep.Classes {
		res.Attempted += c.Attempted
		res.Failed += c.Failed
	}
	for name, v := range rep.Validity {
		if !v.Valid {
			rep.Valid = false
			rep.Violations = append(rep.Violations, fmt.Sprintf("open-loop phase %s invalid: %s", name, v.Reason))
		}
	}
	for k := range e2eUnits {
		if v := m.e2e[k]; !(v > 0) {
			rep.Violations = append(rep.Violations, fmt.Sprintf("metric %s not measured", k))
		}
	}
	if res.Failed > 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("%d requests failed", res.Failed))
	}
	res.Correct = len(rep.Violations) == 0
	sort.Strings(rep.Violations)
	return rep, res, nil
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	spans, _ := tr.snapshot()
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
