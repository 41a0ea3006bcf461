// Command bench is the repository's benchmark: it drives the real goroutine
// runtime from source commit to served query with no modeled delay, on four
// named workloads, and reports end-to-end metrics (untraced) or an
// outside-in per-layer trace (--trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 24, "how long the run measures for")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		out     = flag.String("out", "bench/out", "directory for traces and durable data")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the drain phase")
		memProf = flag.String("memprofile", "", "write an allocation profile taken after the drain phase")
		aa      = flag.Int("aa", 0, "A/A self-check: run every workload as two interleaved sets of this many runs")
	)
	flag.Parse()
	if *aa > 0 {
		return selfCheck(*aa, *seconds)
	}
	wl := findWorkload(*name)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}
	rep, err := run(runConfig{
		wl: wl, seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1,
		outDir: *out, cpuProfile: *cpuProf, memProfile: *memProf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "bench: FAILED: %s\n", p)
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: reported(rep, *trace != 0)}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if rep.failed != 0 {
		return 1
	}
	return 0
}

// reported picks the metrics a run's result line carries: every end-to-end
// metric for an untraced run, every per-layer metric for a traced one.
func reported(rep *report, trace bool) map[string]metric {
	names := endToEnd
	if trace {
		names = perLayer
	}
	out := make(map[string]metric, len(names))
	for _, k := range names {
		out[k] = metric{Value: rep.metrics[k], Unit: units[k]}
	}
	return out
}

func printMetrics(res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println()
	for _, k := range names {
		fmt.Printf("  %-28s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("  attempted %d, failed %d\n", res.Attempted, res.Failed)
}
