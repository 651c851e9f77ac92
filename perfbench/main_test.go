package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// tinyRun returns a run of w at a scale that finishes in about a second.
func tinyRun(t *testing.T, w *workload, trace bool) *run {
	r := newRun(w, 1, 0.3, trace, t.TempDir())
	r.scale = 0.02
	r.out = io.Discard
	r.traceDir = t.TempDir()
	return r
}

type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func finish(t *testing.T, r *run) result {
	t.Helper()
	line, _ := r.result()
	var res result
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatalf("result line %s: %v", line, err)
	}
	return res
}

// TestNamesMatchBenchmark runs every workload at a tiny scale, untraced and
// traced, and checks that the printed metrics are exactly BENCHMARK.json's,
// with its units, and that every check passed. BENCHMARK.json declares every
// workload but fig6-hits, which stays runnable without being gated.
func TestNamesMatchBenchmark(t *testing.T) {
	bf := readBenchmark(t)
	var names []string
	for _, w := range workloads {
		if w.name != "fig6-hits" {
			names = append(names, w.name)
		}
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(names, declared) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			r := tinyRun(t, w, trace)
			r.execute()
			res := finish(t, r)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d: %v",
					w.name, trace, res.Correct, res.Failed, res.Attempted, r.problems)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics printed, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%t: metric %s unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// corruptGen passes its generator's rows through, except that it shifts
// one value after skip rows.
type corruptGen struct {
	generator
	skip int
}

func (g *corruptGen) fill(rel int, buf []int64) {
	g.generator.fill(rel, buf)
	if g.skip--; g.skip == 0 {
		buf[0]++
	}
}

// TestMismatchFails injects a mismatch by corrupting one row of the MJoin
// side's stream, late in warm-up when every window is full, and checks that
// the run counts a failure and reports itself incorrect.
func TestMismatchFails(t *testing.T) {
	w := *fig6Hits()
	calls := 0
	w.newGen = func(seed uint64) generator {
		calls++
		g := newFig6Gen(seed)
		if calls == 2 { // the MJoin side of the first repetition
			return &corruptGen{generator: g, skip: 1900}
		}
		return g
	}
	r := tinyRun(t, &w, false)
	r.phase("closed-loop", r.closedPhase)
	if !slices.ContainsFunc(r.problems, func(p string) bool { return strings.Contains(p, "adaptive and MJoin results differ") }) {
		t.Errorf("no adaptive-vs-MJoin mismatch reported; problems: %v", r.problems)
	}
	res := finish(t, r)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted stream passed: correct=%t failed=%d", res.Correct, res.Failed)
	}
}

// TestOracleCheckFails checks that the oracle check fires when the engine's
// stream is corrupted, and when the prefix is too short for the oracle to
// emit any result.
func TestOracleCheckFails(t *testing.T) {
	w := *fig6Hits()
	calls := 0
	w.newGen = func(seed uint64) generator {
		calls++
		g := newFig6Gen(seed)
		if calls == 1 { // the engine's side
			return &corruptGen{generator: g, skip: 700}
		}
		return g
	}
	r := tinyRun(t, &w, false)
	if err := r.oracleCheck(); err == nil || !strings.Contains(err.Error(), "engine and oracle differ") {
		t.Errorf("corrupted engine stream: oracle check returned %v", err)
	}

	short := *durableSpill()
	short.oracleRows = 30
	r = tinyRun(t, &short, false)
	if err := r.oracleCheck(); err == nil || !strings.Contains(err.Error(), "emits no result") {
		t.Errorf("empty oracle output: oracle check returned %v", err)
	}
}
