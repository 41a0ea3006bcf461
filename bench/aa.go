package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bm benchmarkFile
	if err := json.Unmarshal(b, &bm); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bm, nil
}

// quartiles mirrors Python's statistics.quantiles(v, n=4): the exclusive
// method, interpolating at (len+1)·i/4.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j, delta := i*(m+1)/4, i*(m+1)%4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > m-1 {
			j, delta = m-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// runOnce runs this binary on one workload and seed and parses the result
// line.
func runOnce(exe, workload string, seed int64, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, res.Failed, res.Attempted)
	}
	vals := make(map[string]float64, len(res.Metrics))
	for k, m := range res.Metrics {
		vals[k] = m.Value
	}
	return vals, nil
}

// selfCheck is the A/A check: every workload as two interleaved sets of n
// runs of this same binary, each run on another seed. It prints, per
// metric, both sets' median and quartile spread and how much worse the
// second median is than the first, each against the metric's bound, and
// returns non-zero on a breach. Its output at the commit that defined the
// benchmark is BASELINE.md.
func selfCheck(n int, seconds float64) int {
	bm, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v (run the self-check from the repository root)\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if n < 2 {
		n = 2 // quartiles need two values
	}
	breaches := 0
	fmt.Printf("# A/A self-check: two interleaved sets of %d runs, %g s each, one seed per run\n", n, seconds)
	for _, w := range bm.Workloads {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < n; i++ {
			for s := range sets {
				vals, err := runOnce(exe, w.Name, int64(100*(s+1)+i), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				for k, v := range vals {
					sets[s][k] = append(sets[s][k], v)
				}
			}
		}
		fmt.Printf("\n## %s\n\n", w.Name)
		fmt.Println("| metric | unit | bound | A median | A spread | B median | B spread | B worse than A | verdict |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, m := range bm.EndToEnd {
			_, am, _ := quartiles(sets[0][m.Name])
			_, bmed, _ := quartiles(sets[1][m.Name])
			spread := func(v []float64) float64 {
				q1, q2, q3 := quartiles(v)
				return (q3 - q1) / q2
			}
			as, bs := spread(sets[0][m.Name]), spread(sets[1][m.Name])
			worse := (bmed - am) / am
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound || math.Max(as, bs) > m.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("| %s | %s | %.0f%% | %.4g | %.1f%% | %.4g | %.1f%% | %+.1f%% | %s |\n",
				m.Name, m.Unit, 100*m.Bound, am, 100*as, bmed, 100*bs, 100*worse, verdict)
		}
		fmt.Printf("\nEvery run (A then B, in run order):\n\n")
		for _, m := range bm.EndToEnd {
			fmt.Printf("- `%s`: %.4g / %.4g\n", m.Name, sets[0][m.Name], sets[1][m.Name])
		}
	}
	if breaches > 0 {
		fmt.Printf("\n%d metric/workload pairs outside their bound\n", breaches)
		return 1
	}
	fmt.Println("\nevery metric on every workload within its bound")
	return 0
}
