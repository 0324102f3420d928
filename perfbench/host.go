package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// host stamps a result with what its numbers depend on.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Fsync      string `json:"fsync"`
}

func hostStamp() host {
	return host{
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Fsync: "always",
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or reports
// the architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// compareMain is `perfbench compare OLD NEW`: it prints each metric of
// two reports side by side with the relative change, and refuses
// reports from different hosts or of different workloads.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var reps [2]report
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		if err := json.Unmarshal(b, &reps[i]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", path, err)
			return 2
		}
	}
	old, cur := reps[0], reps[1]
	if old.Host != cur.Host {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare results from different hosts:\n  %+v\n  %+v\n", old.Host, cur.Host)
		return 1
	}
	if old.Workload != cur.Workload || old.Seconds != cur.Seconds {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare %s/%ds with %s/%ds\n", old.Workload, old.Seconds, cur.Workload, cur.Seconds)
		return 1
	}
	names := make([]string, 0, len(cur.Metrics))
	for k := range cur.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		o, ok := old.Metrics[k]
		if !ok {
			continue
		}
		n := cur.Metrics[k]
		fmt.Printf("%-40s %14.4f %14.4f %-6s %+8.2f%%\n", k, o.Value, n.Value, n.Unit, 100*ratio(n.Value-o.Value, o.Value))
	}
	return 0
}
