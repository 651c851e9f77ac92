package main

import (
	"fmt"
	"strings"

	"acache"
)

// relDef declares one count-windowed relation of a workload's query.
type relDef struct {
	name   string
	window int
	attrs  []string
}

// engineKind selects which public constructor a workload's timed engines
// come from.
type engineKind int

const (
	serialKind  engineKind = iota // Query.Build, one Append per tuple
	shardedKind                   // Query.BuildSharded, fixed-size AppendBatch calls
	durableKind                   // Query.BuildDurable, SyncWAL every syncEvery appends
)

// generator yields a workload's input stream. nextRel picks the relation of
// the next row (or batch); fill writes that relation's next row into buf.
// The same seed always yields the same stream.
type generator interface {
	nextRel() int
	fill(rel int, buf []int64)
}

// workload is one benchmark input: a query, the stream fed to it, and how
// it is driven.
type workload struct {
	name string
	rels []relDef
	// joins are "Rel.Attr" equality pairs, in declaration order.
	joins  [][2]string
	kind   engineKind
	newGen func(seed uint64) generator
	// warm is the number of rows appended during set-up (window fill plus
	// adaptivity warm-up) before the first timed update.
	warm int
	// chunk is the number of rows in one closed-loop measurement.
	chunk int
	// batch is the AppendBatch size of sharded workloads.
	batch int
	// ladder holds the fixed offered rates of the open-loop phase, in rows
	// per second, ascending; refStep indexes the reference rate at which
	// result latency is reported; limitUs is the result_p99_us limit a step
	// must meet to count as sustained.
	ladder  []float64
	refStep int
	limitUs float64
	// hotBytes and pageBytes are Tier.HotBytes and Tier.PageBytes for
	// durable engines (0 = package default).
	hotBytes, pageBytes int
	// durAppends is the number of appends fed to each durability phase.
	durAppends int
	// oracleRows is the length of the prefix checked against the naive
	// oracle: long enough that the oracle emits results, unless
	// oracleMayBeEmpty says no affordable prefix is.
	oracleRows       int
	oracleMayBeEmpty bool
	// tsCol is the per-relation column that carries a row's due time (-1 if
	// rows carry none).
	tsCol int
	// checkPlan inspects the plan at the end of warm-up; nil accepts any.
	checkPlan func(plan string) error
}

const (
	// syncEvery is the number of appends between SyncWAL calls on durable
	// engines.
	syncEvery = 256
	// checkpointEvery is the number of appends between SaveCheckpoint calls
	// on durable engines.
	checkpointEvery = 32768
)

var workloads = []*workload{fig6Hits(), fig9Nway7(), burstSharded(), durableSpill()}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// query declares the workload's query through the public API.
func (w *workload) query() *acache.Query {
	q := acache.NewQuery()
	for _, r := range w.rels {
		q.WindowedRelation(r.name, r.window, r.attrs...)
	}
	for _, j := range w.joins {
		q.Join(j[0], j[1])
	}
	return q
}

func (w *workload) maxArity() int {
	m := 0
	for _, r := range w.rels {
		m = max(m, len(r.attrs))
	}
	return m
}

// fig6Hits is the paper's Figure 6 chain at multiplicity 8: S is declared
// first so the default ordering is the Figure 3 plan.
func fig6Hits() *workload {
	return &workload{
		name: "fig6-hits",
		rels: []relDef{
			{"S", 100, []string{"A", "B"}},
			{"R", 100, []string{"A"}},
			{"T", 100, []string{"B"}},
		},
		joins:      [][2]string{{"R.A", "S.A"}, {"S.B", "T.B"}},
		kind:       serialKind,
		newGen:     newFig6Gen,
		warm:       100_000,
		chunk:      60_000,
		ladder:     []float64{50_000, 100_000, 400_000, 2_400_000},
		refStep:    1,
		limitUs:    50_000,
		durAppends: 2*checkpointEvery + 30_000,
		oracleRows: 1500,
		tsCol:      -1,
		checkPlan:  checkFig3,
	}
}

// checkFig3 asserts the Figure 3 pipeline orders of the S, R, T chain:
// ΔS: R,T; ΔR: S,T; ΔT: S,R. Any other default order puts a cross product
// into some pipeline.
func checkFig3(plan string) error {
	return wantLines(plan, "ΔS: ⋈ R ⋈ T", "ΔR: ⋈ S ⋈ T", "ΔT: ⋈ S ⋈ R")
}

// fig6Gen draws R.A, S.(A,B) and T.B from cyclic counters over a domain of
// 100 (each T.B value repeated 8 times), with ΔT at 8× the rate of ΔR and
// ΔS. The seed sets the counters' starting points and the interleaving.
type fig6Gen struct {
	r          rng
	cS, cR, cT int64
	repT       int
}

func newFig6Gen(seed uint64) generator {
	g := &fig6Gen{r: rng{s: seed}}
	g.cS, g.cR, g.cT = int64(g.r.intn(100)), int64(g.r.intn(100)), int64(g.r.intn(100))
	return g
}

func (g *fig6Gen) nextRel() int {
	switch x := g.r.intn(10); {
	case x == 0:
		return 0
	case x == 1:
		return 1
	default:
		return 2
	}
}

func (g *fig6Gen) fill(rel int, buf []int64) {
	switch rel {
	case 0:
		buf[0], buf[1] = g.cS, g.cS
		g.cS = (g.cS + 1) % 100
	case 1:
		buf[0] = g.cR
		g.cR = (g.cR + 1) % 100
	default:
		buf[0] = g.cT
		if g.repT++; g.repT == 8 {
			g.repT = 0
			g.cT = (g.cT + 1) % 100
		}
	}
}

// fig9Nway7 is the Figure 9 star at n = 7.
func fig9Nway7() *workload {
	w := &workload{
		name:       "fig9-nway7",
		kind:       serialKind,
		newGen:     newFig9Gen,
		warm:       100_000,
		chunk:      50_000,
		ladder:     []float64{50_000, 100_000, 400_000, 2_400_000},
		refStep:    1,
		limitUs:    50_000,
		durAppends: 2*checkpointEvery + 30_000,
		oracleRows: 1500,
		// A result needs a key present in all seven windows: about one
		// row in 70 000 starts a burst, and the naive oracle costs some
		// 200 µs per row, so its prefix is usually empty of results.
		oracleMayBeEmpty: true,
		tsCol:            -1,
	}
	for i := 0; i < 7; i++ {
		w.rels = append(w.rels, relDef{fmt.Sprintf("R%d", i), 50, []string{"A"}})
		if i > 0 {
			w.joins = append(w.joins, [2]string{"R0.A", fmt.Sprintf("R%d.A", i)})
		}
	}
	return w
}

// fig9Gen draws every relation's A uniformly from a domain of 100 at equal
// rates; R3..R6 repeat each draw 5 times.
type fig9Gen struct {
	r   rng
	cur [7]int64
	rep [7]int
}

func newFig9Gen(seed uint64) generator { return &fig9Gen{r: rng{s: seed}} }

func (g *fig9Gen) nextRel() int { return g.r.intn(7) }

func (g *fig9Gen) fill(rel int, buf []int64) {
	if rel < 3 {
		buf[0] = int64(g.r.intn(100))
		return
	}
	if g.rep[rel] == 0 {
		g.cur[rel] = int64(g.r.intn(100))
	}
	g.rep[rel] = (g.rep[rel] + 1) % 5
	buf[0] = g.cur[rel]
}

// burstSharded is a 4-relation star whose ΔR0 rate alternates between 1×
// and 20× in fixed-length phases, driven through a ShardedEngine.
func burstSharded() *workload {
	w := &workload{
		name:   "burst-sharded",
		kind:   shardedKind,
		newGen: newBurstGen,
		// Set-up and every throughput sample span whole pairs of 1× and
		// 20× phases, so each sample includes the plan flips between them.
		warm:       4 * burstPhaseRows,
		chunk:      2 * burstPhaseRows,
		batch:      64,
		ladder:     []float64{50_000, 100_000, 400_000, 1_600_000},
		refStep:    1,
		limitUs:    50_000,
		durAppends: 2*checkpointEvery + 30_000,
		oracleRows: 1500,
		tsCol:      1,
		checkPlan: func(plan string) error {
			if strings.Contains(strings.SplitN(plan, "\n", 2)[0], "broadcast") {
				return fmt.Errorf("partitioning broadcasts a relation: %s", strings.SplitN(plan, "\n", 2)[0])
			}
			return nil
		},
	}
	for i := 0; i < 4; i++ {
		w.rels = append(w.rels, relDef{fmt.Sprintf("R%d", i), 100, []string{"A", "TS"}})
		if i > 0 {
			w.joins = append(w.joins, [2]string{"R0.A", fmt.Sprintf("R%d.A", i)})
		}
	}
	return w
}

// burstPhaseRows is the length, in rows, of each ΔR0 rate phase: a
// multiple of the 64-row batch, spanning several re-optimization intervals
// of every shard, so that each phase can flip the plan.
const burstPhaseRows = 50_048

// burstGen draws A uniformly from a domain of 100. ΔR0 runs at 1× the other
// streams' rate in even phases and 20× in odd ones. TS is the row's index in
// the stream; the open loop overwrites it with the row's due time.
type burstGen struct {
	r    rng
	rows int64
}

func newBurstGen(seed uint64) generator { return &burstGen{r: rng{s: seed}} }

func (g *burstGen) nextRel() int {
	if (g.rows/burstPhaseRows)%2 == 0 {
		return g.r.intn(4)
	}
	if x := g.r.intn(23); x < 20 {
		return 0
	} else {
		return x - 19
	}
}

func (g *burstGen) fill(rel int, buf []int64) {
	buf[0] = int64(g.r.intn(100))
	buf[1] = g.rows
	g.rows++
}

// durableSpill is the wide-tuple 3-way query of the recovery experiment on a
// durable engine whose windows are 16× its hot tier.
func durableSpill() *workload {
	const win = 32768
	return &workload{
		name: "durable-spill",
		rels: []relDef{
			{"S", win, []string{"A", "B", "P1", "P2"}},
			{"R", win, []string{"A", "P1", "P2", "P3"}},
			{"T", win, []string{"B", "P1", "P2", "P3"}},
		},
		joins:      [][2]string{{"R.A", "S.A"}, {"S.B", "T.B"}},
		kind:       durableKind,
		newGen:     newDurableGen,
		warm:       4 * checkpointEvery,
		chunk:      checkpointEvery,
		ladder:     []float64{10_000, 20_000, 40_000, 400_000},
		refStep:    1,
		limitUs:    50_000,
		hotBytes:   64 << 10,
		pageBytes:  4 << 10,
		durAppends: checkpointEvery + 30_000,
		oracleRows: 8000,
		tsCol:      -1,
		checkPlan:  checkFig3,
	}
}

// durableGen draws join keys uniformly from a domain as large as the
// windows (about one match per probe) and fills the payload columns with
// random words, at equal rates.
type durableGen struct{ r rng }

func newDurableGen(seed uint64) generator { return &durableGen{r: rng{s: seed}} }

func (g *durableGen) nextRel() int { return g.r.intn(3) }

func (g *durableGen) fill(rel int, buf []int64) {
	const domain = 32768
	buf[0] = int64(g.r.intn(domain))
	first := 1
	if rel == 0 {
		buf[1] = int64(g.r.intn(domain))
		first = 2
	}
	for i := first; i < 4; i++ {
		buf[i] = int64(g.r.next() >> 32)
	}
}

// wantLines checks that plan contains each line exactly.
func wantLines(plan string, lines ...string) error {
	have := map[string]bool{}
	for _, l := range strings.Split(plan, "\n") {
		have[strings.TrimSpace(l)] = true
	}
	for _, l := range lines {
		if !have[l] {
			return fmt.Errorf("plan lacks %q:\n%s", l, plan)
		}
	}
	return nil
}

// rng is splitmix64: cheap enough to generate rows inside timed loops.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int((r.next() >> 1) % uint64(n)) }
