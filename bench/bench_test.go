package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// smoke runs one workload at a tenth of its size for a fraction of a second
// and returns the names of the metrics the command would print.
func smoke(t *testing.T, wl *workload, trace bool) []string {
	t.Helper()
	rep, err := run(runConfig{wl: wl, seed: 7, seconds: 0.4, trace: trace, scale: 0.1, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", wl.name, err)
	}
	if rep.failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", wl.name, rep.failed, rep.attempted, rep.problems)
	}
	var names []string
	for name := range reported(rep, trace) {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func sorted(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}

// Every workload passes its oracle at tiny scale, untraced and traced, and
// prints exactly the metrics BENCHMARK.json promises for that mode.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		if got, want := smoke(t, wl, false), sorted(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: untraced run reports %v, want %v", wl.name, got, want)
		}
		if got, want := smoke(t, wl, true), sorted(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: traced run reports %v, want %v", wl.name, got, want)
		}
	}
}

// streamHash hashes the first n transactions a seed generates.
func streamHash(wl *workload, seed int64, n int) string {
	inst := wl.build(seed, 0.1)
	h := sha256.New()
	for i := 0; i < n; i++ {
		src, ws := inst.gen.next()
		fmt.Fprintf(h, "%s:", src)
		for _, w := range ws {
			fmt.Fprintf(h, "%s%s;", w.Relation, w.Delta)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The same seed gives the same update stream, byte for byte; another seed
// gives another.
func TestGeneratorDeterminism(t *testing.T) {
	for _, wl := range workloads {
		a, b, c := streamHash(wl, 11, 400), streamHash(wl, 11, 400), streamHash(wl, 12, 400)
		if a != b {
			t.Errorf("%s: seed 11 generated two different streams", wl.name)
		}
		if a == c {
			t.Errorf("%s: seeds 11 and 12 generated the same stream", wl.name)
		}
	}
}

// Workload and metric names, units and the command's lists agree with
// BENCHMARK.json exactly.
func TestNamesMatchBenchmarkFile(t *testing.T) {
	bm, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not built in", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the command has %d", names, len(workloads))
	}
	var e2e, layers []string
	for _, m := range bm.EndToEnd {
		e2e = append(e2e, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the command", m.Name, m.Unit, units[m.Name])
		}
	}
	for _, m := range bm.PerLayer {
		layers = append(layers, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the command", m.Name, m.Unit, units[m.Name])
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end names %v, command reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer names %v, command reports %v", layers, perLayer)
	}
	for _, n := range append(append(names, e2e...), layers...) {
		if !valid.MatchString(n) {
			t.Errorf("name %q uses characters outside letters, digits, _ . -", n)
		}
	}
}

// The quartile rule is the one Python's statistics.quantiles(v, n=4) uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
