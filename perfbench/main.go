// Command perfbench is acache's benchmark: it drives the public acache API
// on fixed workloads, checks every output, and prints end-to-end metrics
// (or, with -trace 1, per-layer metrics from a traced run). See README.md.
//
//	perfbench -workload fig6-hits -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure with its sample count.
type metric struct {
	value   float64
	unit    string
	samples int
}

// run holds one invocation: its workload and settings, operation counters,
// and the metrics collected so far.
type run struct {
	w       *workload
	seed    uint64
	budget  time.Duration
	trace   bool
	scale   float64 // 1 normally; tests shrink the fixed-size phases
	workDir string
	dirs    int
	names   []string
	arity   []int

	attempted, failed int64
	problems          []string
	metrics           map[string]metric
	setups            []float64 // set-up seconds of adaptive engines
	heap              []float64 // MB in use after GC, one adaptive engine alive
	latCap            int       // capacity for a closed-loop segment's samples
	origin            time.Time // due times in TS columns count from here
	commits           []int64   // SyncWAL latencies of adaptive durable engines, ns
	out               io.Writer // progress lines
	traceDir          string    // where a traced run writes its spans
}

func newRun(w *workload, seed uint64, seconds float64, trace bool, workDir string) *run {
	r := &run{
		w: w, seed: seed, trace: trace, scale: 1, workDir: workDir,
		budget:   time.Duration(seconds * float64(time.Second)),
		metrics:  map[string]metric{},
		latCap:   1 << 20,
		origin:   time.Now(),
		out:      os.Stdout,
		traceDir: filepath.Join(".bench_build", "traces"),
	}
	for _, rd := range w.rels {
		r.names = append(r.names, rd.name)
		r.arity = append(r.arity, len(rd.attrs))
	}
	return r
}

// fail records a failed operation.
func (r *run) fail(format string, args ...any) {
	r.failed++
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
}

// phase runs f, counting an error or a recovered panic as a failure.
func (r *run) phase(name string, f func() error) {
	defer func() {
		if p := recover(); p != nil {
			r.fail("%s: panic: %v", name, p)
		}
	}()
	if err := f(); err != nil {
		r.fail("%s: %v", name, err)
	}
}

func (r *run) set(name string, value float64, unit string, samples int) {
	r.metrics[name] = metric{value: value, unit: unit, samples: samples}
}

// scaled shrinks a fixed size in tests, keeping it at least lo.
func (r *run) scaled(n, lo int) int { return max(lo, int(float64(n)*r.scale)) }

// frac is a share of the run's time budget.
func (r *run) frac(f float64) time.Duration { return time.Duration(f * float64(r.budget)) }

func (r *run) execute() {
	r.hostFacts()
	r.phase("oracle", r.oracleCheck)
	if r.trace {
		r.traced()
	} else {
		r.endToEnd()
	}
}

// endToEnd measures every end-to-end metric with tracing off.
func (r *run) endToEnd() {
	r.phase("closed-loop", r.closedPhase)
	r.phase("ladder", r.ladderPhase)
	r.phase("durable", func() error { return r.durablePhases(2, r.frac(0.2)) })
	if len(r.setups) > 0 {
		r.set("setup_s", median(r.setups), "s", len(r.setups))
	}
	if len(r.heap) > 0 {
		r.set("heap_mb", median(r.heap), "MB", len(r.heap))
	}
}

// closedPhase runs four repetitions, each on fresh adaptive and MJoin
// engines fed the same stream: two replicas of each (see closedLoop).
// Within a repetition the adaptive and the MJoin side take turns on
// fixed-size chunks of that stream, each side processing exactly the same
// rows, with the side that goes first alternating. Throughput, Append
// latency and the result latency of serial and durable engines come from
// chunk samples, mostly as fast deciles, so a burst of interference on the
// host moves few samples. Set-up time, heap samples, and the
// adaptive-vs-MJoin, replica and sharded-vs-serial checks come from here.
func (r *run) closedPhase() error {
	const reps = 4
	const n = 2 // replicas of each side
	var thrA, thrM, p50, p99, r50, r99 []float64
	nLat := 0
	chunk := r.scaled(r.w.chunk, 500)
	budget := r.frac(closedShare(r.w.kind) / reps)
	for rep := 0; rep < reps; rep++ {
		seed := r.seed*7919 + uint64(rep)
		var as, ms []*engine
		var gA, gM generator
		var secs float64
		closeAll := func() {
			for _, e := range append(as, ms...) {
				e.close()
			}
		}
		for i := 0; i < n; i++ {
			g, h := r.w.newGen(seed), r.w.newGen(seed)
			a, sa, err := r.setup(true, g)
			if err != nil {
				closeAll()
				return err
			}
			as = append(as, a)
			r.setups = append(r.setups, sa)
			m, _, err := r.setup(false, h)
			if err != nil {
				closeAll()
				return err
			}
			ms = append(ms, m)
			if i == 0 {
				gA, gM, secs = g, h, sa
			}
		}
		rows := 0
		start := time.Now()
		for k := 0; k == 0 || time.Since(start) < budget; k++ {
			var sa, sm segment
			var err error
			if (k+rep)%2 == 0 {
				if sa, err = r.closedLoop(as, gA, chunk, 0); err == nil {
					sm, err = r.closedLoop(ms, gM, chunk, 0)
				}
			} else {
				if sm, err = r.closedLoop(ms, gM, chunk, 0); err == nil {
					sa, err = r.closedLoop(as, gA, chunk, 0)
				}
			}
			if err != nil {
				closeAll()
				return err
			}
			rows += sa.rows
			thrA = append(thrA, float64(sa.rows)/sa.secs)
			thrM = append(thrM, float64(sm.rows)/sm.secs)
			p50 = append(p50, quantile(sa.lat, 0.50))
			p99 = append(p99, quantile(sa.lat, 0.99))
			nLat += len(sa.lat)
			if len(sa.res) > 0 {
				r50 = append(r50, quantile(sa.res, 0.50)/1e3)
				r99 = append(r99, quantile(sa.res, 0.99)/1e3)
			}
		}
		a, m := as[0], ms[0]
		r.attempted++
		if a.sink != m.sink {
			r.fail("rep %d: adaptive and MJoin results differ after %d rows: %v vs %v", rep, rows, a.sink, m.sink)
		}
		for i := 1; i < n; i++ {
			r.attempted += 2
			if as[i].sink != a.sink {
				r.fail("rep %d: adaptive replicas differ after %d rows: %v vs %v", rep, rows, a.sink, as[i].sink)
			}
			if ms[i].sink != m.sink {
				r.fail("rep %d: MJoin replicas differ after %d rows: %v vs %v", rep, rows, m.sink, ms[i].sink)
			}
		}
		if rep == 0 && r.w.kind == shardedKind {
			r.phase("sharded-vs-serial", func() error { return r.serialMatches(seed, rows, a.sink) })
		}
		r.commits = append(r.commits, a.commits...)
		r.durableCalls(append(as, ms...)...)
		for _, e := range append(as[1:], ms...) {
			e.close()
		}

		// Heap in use after GC with this warm adaptive engine alive.
		r.heap = append(r.heap, heapMB())
		runtime.KeepAlive(a)
		a.close()
		fmt.Fprintf(r.out, "closed loop rep %d: %d rows in %d-row chunks on %d replicas, set-up %.4f s, heap %.3f MB\n",
			rep, rows, chunk, n, secs, r.heap[len(r.heap)-1])
	}
	fmt.Fprintf(r.out, "closed loop chunks: adaptive rows/s quartiles %s, MJoin %s\n", quartiles(thrA), quartiles(thrM))
	r.set("updates_per_s", fast(thrA, true), "1/s", len(thrA))
	r.set("mjoin_updates_per_s", fast(thrM, true), "1/s", len(thrM))
	r.set("append_p50_ns", fast(p50, false), "ns", nLat)
	r.set("append_p99_ns", fast(p99, false), "ns", nLat)
	if len(r99) > 0 {
		// A chunk's result p99 is set by its few bursts that hold a rare
		// heavy row (a re-optimization, a burst of results), whose count
		// varies from chunk to chunk with the data: the fast decile would
		// pick the chunks with the fewest, so the p99 is the median.
		r.set("result_p50_us", fast(r50, false), "us", nLat)
		r.set("result_p99_us", median(r99), "us", nLat)
	}
	return nil
}

// closedShare is the share of the time budget the closed loop takes: on
// burst-sharded the reference steps of the ladder phase take 0.19 of it.
func closedShare(kind engineKind) float64 {
	if kind == shardedKind {
		return 0.55
	}
	return 0.74
}

// quartiles renders the quartiles of xs.
func quartiles(xs []float64) string {
	s := slices.Clone(xs)
	sort.Float64s(s)
	q := func(f float64) float64 { return s[int(f*float64(len(s)-1))] }
	return fmt.Sprintf("%.0f/%.0f/%.0f", q(0.25), q(0.5), q(0.75))
}

// setup builds an engine and feeds it the warm-up prefix, returning the
// wall clock from the build call to the first timed update. Adaptive
// engines' plans are checked at the end of warm-up.
func (r *run) setup(caching bool, g generator) (*engine, float64, error) {
	start := time.Now()
	e, err := r.build(r.w.kind, caching)
	if err != nil {
		return nil, 0, err
	}
	if err := r.feed(e, g, r.scaled(r.w.warm, 2000)); err != nil {
		e.close()
		return nil, 0, err
	}
	secs := time.Since(start).Seconds()
	if caching && r.w.checkPlan != nil {
		r.attempted++
		if err := r.w.checkPlan(e.plan()); err != nil {
			r.fail("plan check: %v", err)
		}
	}
	return e, secs, nil
}

// durableCalls counts the engines' SyncWAL and SaveCheckpoint calls as
// attempted operations.
func (r *run) durableCalls(es ...*engine) {
	for _, e := range es {
		r.attempted += e.durableCalls
		e.durableCalls = 0
	}
}

// refSteps is the number of short open-loop steps at the reference rate.
const refSteps = 96

// ladderPhase offers each of the workload's fixed rates in ascending order.
// The sustained rate is the delivered rate of the highest step that met the
// latency limit; a step that kept pace but missed the limit is offered once
// more, so a transient stall of the host does not read as overload. Heap is
// sampled before each rate's first step. A durable engine commits between
// steps, never inside one, and checkpoints instead once its WAL holds
// checkpointEvery appends: the steps measure the engine and its tier, and
// the durability phases measure the disk. On burst-sharded, refSteps short
// steps at the reference rate follow the ladder and give result latency:
// the fast decile over the steps of each step's quantile. A host that
// deschedules the process for a few milliseconds spoils the p99 of the
// steps it lands in, and short steps leave clean ones to measure. This
// leaves out the few steps with a plan flip; the throughput chunks cover
// the flips instead.
func (r *run) ladderPhase() error {
	g := r.w.newGen(r.seed*7919 + 101)
	e, secs, err := r.setup(true, g)
	if err != nil {
		return err
	}
	defer e.close()
	r.setups = append(r.setups, secs)
	e.scheduled = false
	offer := func(rate float64, dur time.Duration) (step, error) {
		var err error
		switch {
		case e.dir == "":
		case e.sinceCkpt >= checkpointEvery:
			err = e.checkpoint()
		default:
			err = e.sync()
		}
		if err != nil {
			return step{}, err
		}
		return r.openLoop(e, g, rate, dur)
	}
	sustained := 0.0
	for _, rate := range r.w.ladder {
		r.heap = append(r.heap, heapMB())
		for try := 0; try < 2; try++ {
			st, err := offer(rate, r.frac(0.025))
			if err != nil {
				return err
			}
			fmt.Fprintf(r.out, "ladder %.0f rows/s: delivered %.0f, result p50 %.1f us p99 %.1f us, drain %.1f us, generator lag p99 %.1f us, %d results\n",
				rate, st.delivered, quantile(st.result, 0.5)/1e3, quantile(st.result, 0.99)/1e3,
				float64(st.drainNs)/1e3, quantile(st.lag, 0.99)/1e3, len(st.result))
			if st.passes(r.w.limitUs) {
				sustained = st.delivered
				break
			}
			if st.delivered < 0.95*rate {
				break // overload, not a stall: the engine fell behind
			}
		}
	}
	r.set("sustained_updates_per_s", sustained, "1/s", len(r.w.ladder))
	defer r.durableCalls(e)
	if e.sh == nil {
		return nil
	}
	var p50, p99, lag, backlog []float64
	nRes, nLag := 0, 0
	for i := 0; i < refSteps; i++ {
		st, err := offer(r.w.ladder[r.w.refStep], r.frac(0.19/refSteps))
		if err != nil {
			return err
		}
		p50 = append(p50, quantile(st.result, 0.50)/1e3)
		p99 = append(p99, quantile(st.result, 0.99)/1e3)
		lag = append(lag, quantile(st.lag, 0.99)/1e3)
		backlog = append(backlog, st.backlog)
		nRes += len(st.result)
		nLag += len(st.lag)
	}
	fmt.Fprintf(r.out, "reference steps: result p99 %v us\n", roundAll(p99))
	r.set("result_p50_us", fast(p50, false), "us", nRes)
	r.set("result_p99_us", fast(p99, false), "us", nRes)
	r.set("gen.lag_p99_us", median(lag), "us", nLag)
	r.set("gen.backlog_rows_end", median(backlog), "rows", len(backlog))
	return nil
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.1f", x)
	}
	return out
}

// heapMB is the Go heap in use after full collections. The second one
// empties what sync.Pool victim caches kept alive through the first.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// hostFacts prints the host and run facts that go with every result.
func (r *run) hostFacts() {
	ladder := make([]string, len(r.w.ladder))
	for i, x := range r.w.ladder {
		ladder[i] = fmt.Sprintf("%.0f", x)
	}
	facts := []string{
		"workload=" + r.w.name,
		fmt.Sprintf("seed=%d", r.seed),
		fmt.Sprintf("seconds=%.1f", r.budget.Seconds()),
		fmt.Sprintf("trace=%t", r.trace),
		fmt.Sprintf("nproc=%d", runtime.NumCPU()),
		fmt.Sprintf("gomaxprocs=%d", runtime.GOMAXPROCS(0)),
		"go=" + runtime.Version(),
		"commit=" + commit(),
		"durable_fs=" + fsType(r.workDir),
		"ladder_rows_per_s=" + strings.Join(ladder, ","),
		fmt.Sprintf("reference_rate=%s", ladder[r.w.refStep]),
		fmt.Sprintf("result_p99_limit_us=%.0f", r.w.limitUs),
	}
	fmt.Fprintln(r.out, "host:", strings.Join(facts, " "))
}

// commit reads the checked-out commit from .git, when there is one.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", name))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(b))
	}
	return ref
}

// endToEndNames lists the end-to-end metrics in BENCHMARK.json order.
var endToEndNames = []string{
	"updates_per_s", "mjoin_updates_per_s", "append_p50_ns", "append_p99_ns",
	"result_p50_us", "result_p99_us", "sustained_updates_per_s",
	"recovery_s", "setup_s", "heap_mb",
}

// result renders the final JSON line: the end-to-end metrics, or the
// per-layer ones in a traced run.
func (r *run) result() ([]byte, bool) {
	names := endToEndNames
	if r.trace {
		names = layerNames
	}
	ms := map[string]map[string]any{}
	for _, name := range names {
		m, ok := r.metrics[name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			r.fail("metric %s was not measured", name)
			m = metric{unit: unitOf(name)}
		}
		fmt.Fprintf(r.out, "metric %-36s %16.4f %-6s (n=%d)\n", name, m.value, m.unit, m.samples)
		ms[name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	correct := r.failed == 0
	b, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   ms,
	})
	return b, correct
}

func unitOf(name string) string {
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	switch {
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case name == "heap_mb":
		return "MB"
	}
	return "1/s"
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	w, err := lookupWorkload(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	workDir, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(workDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r := newRun(w, uint64(*seed), *seconds, *trace == 1, workDir)
	r.execute()
	os.RemoveAll(workDir)
	line, correct := r.result()
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// quantile returns the q-quantile of xs (nearest rank). It sorts xs in
// place.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := xs
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(0, min(i, len(s)-1))])
}

// fast is the decile of a metric's within-run samples on the fast side:
// the upper decile when higher is better, the lower one otherwise. Other
// tenants of a shared host only ever slow a sample down, and descheduling
// and slow disk writes come in bursts that spoil whole samples; the fast
// decile tracks the engine's own speed where the median, and on a busy host
// even a quartile, moves with the host's load.
func fast(xs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return quartile(xs, 0.9)
	}
	return quartile(xs, 0.1)
}

// quartile interpolates the q-quantile of xs between closest ranks.
func quartile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// median of xs, averaging the middle pair of an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
