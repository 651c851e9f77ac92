package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"acache/internal/core"
	"acache/internal/cost"
	"acache/internal/stream"
	"acache/internal/tier"
	"acache/internal/tuple"
)

// layerMetrics lists the per-layer metrics of a traced run, in
// BENCHMARK.json order. Metrics of a layer a workload does not use (shard
// on serial workloads) read 0.
var layerMetrics = []struct{ name, unit string }{
	{"window.ns_per_append", "ns"},
	{"window.expiries_per_append", "count"},
	{"core.insert_ns_p50", "ns"},
	{"core.insert_ns_p99", "ns"},
	{"core.expire_ns_p50", "ns"},
	{"core.expire_ns_p99", "ns"},
	{"core.reopt_ns_per_update", "ns"},
	{"core.reopt_pause_max_us", "us"},
	{"core.reopts", "count"},
	{"core.reopts_skipped", "count"},
	{"core.candidate_rescores", "count"},
	{"core.plan_changes", "count"},
	{"core.phase.probe_ns", "ns"},
	{"core.phase.cache_maint_ns", "ns"},
	{"core.phase.profiler_ns", "ns"},
	{"core.phase.reopt_ns", "ns"},
	{"core.phase.unattributed_ns", "ns"},
	{"cost.units_per_update", "count"},
	{"cost.mjoin_units_per_update", "count"},
	{"cost.predicted_speedup", "ratio"},
	{"relation.chain_ops_per_update", "count"},
	{"filter.short_circuits_per_update", "count"},
	{"filter.false_positives_per_update", "count"},
	{"cache.used", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.bytes", "B"},
	{"cache.entries", "count"},
	{"profiler.sampled_frac", "ratio"},
	{"shard.ingress_ns_per_row", "ns"},
	{"shard.skew", "ratio"},
	{"shard.flush_us", "us"},
	{"gen.lag_p99_us", "us"},
	{"gen.backlog_rows_end", "rows"},
	{"wal.sync_us", "us"},
	{"wal.commit_p99_us", "us"},
	{"wal.bytes_per_update", "B"},
	{"checkpoint.save_s", "s"},
	{"checkpoint.bytes", "B"},
	{"recovery.records_replayed", "count"},
	{"tier.hot_bytes", "B"},
	{"tier.cold_bytes", "B"},
	{"tier.promotions_per_update", "count"},
	{"tier.demotions_per_update", "count"},
	{"trace.overhead", "ratio"},
	{"trace.spans", "count"},
}

var layerNames = func() []string {
	out := make([]string, len(layerMetrics))
	for i, m := range layerMetrics {
		out[i] = m.name
	}
	return out
}()

// Span names.
const (
	spanAppend uint8 = iota // one appended row: the parent of the spans below
	spanWindow              // stream.SlidingWindow.AppendInto
	spanInsert              // core.Engine.Process of the insert
	spanExpire              // core.Engine.Process of the expiry delete
	spanBatch               // ShardedEngine.AppendBatch
	spanFlush               // ShardedEngine.Flush
)

var spanNames = []string{"append", "window.AppendInto", "core.Process insert", "core.Process expire", "shard.AppendBatch", "shard.Flush"}

// span is one timed call; spans of one row share req.
type span struct {
	req, id, parent int32
	name            uint8
	start, end      int64 // ns since the tracer's origin
}

// maxSpans bounds the spans kept in memory; aggregates cover every call.
const maxSpans = 1 << 18

type tracer struct {
	origin time.Time
	spans  []span
	limit  int // spans kept in the current segment stop at this count
}

func (t *tracer) record(req, parent int32, name uint8, start, end time.Time) int32 {
	if len(t.spans) >= t.limit {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{req: req, id: id, parent: parent, name: name,
		start: start.Sub(t.origin).Nanoseconds(), end: end.Sub(t.origin).Nanoseconds()})
	return id
}

// write stores the spans as JSON lines in dir.
func (t *tracer) write(dir string, w *workload, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	b := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(b, `{"req":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.req, s.id, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := b.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// composed is acache.Engine.Append taken apart: the window operator and
// the core engine, called separately so each gets its own span.
type composed struct {
	en   *core.Engine
	wins []*stream.SlidingWindow
	buf  []stream.Update
	seq  uint64
	sink sink
}

// newComposed builds the core engine with the configuration default
// Options give a public engine (Query.Build).
func (r *run) newComposed(instrument bool, tierDir string) (*composed, error) {
	iq, err := r.internalQuery()
	if err != nil {
		return nil, err
	}
	cfg := core.Config{MemoryBudget: -1, GCQuota: 6, InstrumentPhases: instrument}
	if tierDir != "" {
		cfg.Tier = tier.Options{Dir: tierDir, HotBytes: r.w.hotBytes, PageBytes: r.w.pageBytes}
	}
	en, err := core.NewEngine(iq, nil, cfg)
	if err != nil {
		return nil, err
	}
	c := &composed{en: en}
	for _, rd := range r.w.rels {
		c.wins = append(c.wins, stream.NewSlidingWindow(rd.window))
	}
	en.OnResult(func(insert bool, row []tuple.Value) { c.sink.add(insert, row) })
	return c, nil
}

// window runs the window operator for one row, as Engine.Append does.
func (c *composed) window(rel int, vals []int64) []stream.Update {
	ups := c.wins[rel].AppendInto(tuple.Tuple(vals).Clone(), c.buf[:0])
	c.buf = ups[:0]
	for i := range ups {
		ups[i].Rel = rel
	}
	return ups
}

func (c *composed) process(u stream.Update) {
	c.seq++
	u.Seq = c.seq
	c.en.Process(u)
}

// warmComposed feeds rows rows from g to c untraced.
func (r *run) warmComposed(c *composed, g generator, rows int) {
	vals := make([]int64, r.w.maxArity())
	for i := 0; i < rows; i++ {
		for _, u := range c.window(r.nextRow(g, vals)) {
			c.process(u)
		}
	}
}

// traced produces the per-layer metrics.
func (r *run) traced() {
	tr := &tracer{origin: time.Now(), limit: maxSpans}
	if r.w.kind == shardedKind {
		tr.limit = maxSpans / 2 // leave room for the sharded spans
	}
	r.phase("trace-serial", func() error { return r.traceSerial(tr) })
	if r.w.kind == shardedKind {
		tr.limit = maxSpans
		r.phase("trace-sharded", func() error { return r.traceSharded(tr) })
	} else {
		r.set("shard.ingress_ns_per_row", 0, "ns", 0)
		r.set("shard.skew", 0, "ratio", 0)
		r.set("shard.flush_us", 0, "us", 0)
	}
	r.phase("trace-ladder", r.traceLadder)
	r.phase("durable", func() error { return r.durablePhases(1, 0) })
	r.set("trace.spans", float64(len(tr.spans)), "count", len(tr.spans))
	path, err := tr.write(r.traceDir, r.w, r.seed)
	if err != nil {
		r.fail("writing spans: %v", err)
		return
	}
	fmt.Fprintf(r.out, "trace: %d spans written to %s\n", len(tr.spans), path)
}

// traceSerial runs the workload's stream through four serial engines on
// the same rows: the public adaptive Engine (untraced baseline), the public
// MJoin Engine (cost units), the composed window+core.Process path with a
// span per call, and the composed path on an InstrumentPhases engine. All
// four must emit the same results.
func (r *run) traceSerial(tr *tracer) error {
	seed := r.seed*7919 + 300
	warm := r.scaled(r.w.warm, 2000)
	tierDir := func() (string, error) {
		if r.w.kind != durableKind {
			return "", nil
		}
		return r.newDir("tier")
	}
	serial := func(caching bool) (*engine, error) {
		dir, err := tierDir()
		if err != nil {
			return nil, err
		}
		opts := r.w.options(caching, dir)
		q := r.w.query()
		ser, err := q.Build(opts)
		if err != nil {
			return nil, err
		}
		e := &engine{ser: ser}
		ser.OnResult(e.sink.add)
		return e, nil
	}

	// Untraced public adaptive engine: the overhead baseline and cost units.
	pub, err := serial(true)
	if err != nil {
		return err
	}
	defer pub.close()
	g := r.w.newGen(seed)
	if err := r.feed(pub, g, warm); err != nil {
		return err
	}
	s0 := pub.ser.Stats()
	seg, err := r.closedLoop([]*engine{pub}, g, 0, r.frac(0.12))
	if err != nil {
		return err
	}
	s1 := pub.ser.Stats()
	rows := seg.rows
	untraced := float64(rows) / seg.secs
	adaptiveUnits := unitsPerUpdate(s0.WorkSeconds, s1.WorkSeconds, s0.Updates, s1.Updates)

	mj, err := serial(false)
	if err != nil {
		return err
	}
	defer mj.close()
	g = r.w.newGen(seed)
	if err := r.feed(mj, g, warm); err != nil {
		return err
	}
	m0 := mj.ser.Stats()
	if _, err := r.closedLoop([]*engine{mj}, g, rows, 0); err != nil {
		return err
	}
	m1 := mj.ser.Stats()
	mjoinUnits := unitsPerUpdate(m0.WorkSeconds, m1.WorkSeconds, m0.Updates, m1.Updates)
	r.set("cost.units_per_update", adaptiveUnits, "count", int(s1.Updates-s0.Updates))
	r.set("cost.mjoin_units_per_update", mjoinUnits, "count", int(m1.Updates-m0.Updates))
	r.set("cost.predicted_speedup", mjoinUnits/adaptiveUnits, "ratio", 1)
	r.attempted++
	if pub.sink != mj.sink {
		r.fail("trace: adaptive and MJoin results differ")
	}

	// Composed path, one span per call.
	dir, err := tierDir()
	if err != nil {
		return err
	}
	c, err := r.newComposed(false, dir)
	if err != nil {
		return err
	}
	defer c.en.Close()
	g = r.w.newGen(seed)
	r.warmComposed(c, g, warm)
	if err := r.tracedSegment(tr, c, g, rows, untraced); err != nil {
		return err
	}
	r.attempted++
	if c.sink != pub.sink {
		r.fail("trace: composed window+core.Process results differ from Engine.Append's")
	}

	// Composed path on an InstrumentPhases engine: the phase buckets.
	if dir, err = tierDir(); err != nil {
		return err
	}
	ci, err := r.newComposed(true, dir)
	if err != nil {
		return err
	}
	defer ci.en.Close()
	g = r.w.newGen(seed)
	r.warmComposed(ci, g, warm)
	r.phaseSegment(ci, g, rows)
	r.attempted++
	if ci.sink != pub.sink {
		r.fail("trace: instrumented composed results differ from Engine.Append's")
	}
	return nil
}

func unitsPerUpdate(w0, w1 float64, u0, u1 uint64) float64 {
	if u1 == u0 {
		return 0
	}
	return (w1 - w0) * float64(cost.UnitsPerSecond) / float64(u1-u0)
}

// tracedSegment drives rows rows through the composed path, recording a
// span for each row, its window call and each core.Process call, and reads
// the core engine's counters at the segment's boundaries.
func (r *run) tracedSegment(tr *tracer, c *composed, g generator, rows int, untraced float64) error {
	en := c.en
	ex := en.Exec()
	chainOps := func() (n uint64) {
		for rel := range r.w.rels {
			n += ex.Store(rel).ChainOps()
		}
		return n
	}
	snap0 := en.Snapshot()
	ch0 := chainOps()
	sc0, fp0 := en.FilterTelemetry()
	samp0 := en.Profiler().SampledUpdates()
	_, _, _, lastReopt := en.PhaseNanos()
	reopt0 := lastReopt
	used := usedKey(en)

	var windowNs, expiries, updates int64
	var insertNs, expireNs []int64
	var pauseMax int64
	planChanges := 0
	vals := make([]int64, r.w.maxArity())
	start := time.Now()
	for i := 0; i < rows; i++ {
		rel, row := r.nextRow(g, vals)
		t0 := time.Now()
		ups := c.window(rel, row)
		t1 := time.Now()
		root := tr.record(int32(i), -1, spanAppend, t0, t0) // end patched below
		tr.record(int32(i), root, spanWindow, t0, t1)
		windowNs += t1.Sub(t0).Nanoseconds()
		prev := t1
		for _, u := range ups {
			c.process(u)
			now := time.Now()
			d := now.Sub(prev).Nanoseconds()
			name := spanInsert
			if u.Op == stream.Delete {
				name = spanExpire
				expiries++
				expireNs = append(expireNs, d)
			} else {
				insertNs = append(insertNs, d)
			}
			tr.record(int32(i), root, name, prev, now)
			if _, _, _, ro := en.PhaseNanos(); ro != lastReopt {
				lastReopt = ro
				pauseMax = max(pauseMax, d)
				if k := usedKey(en); k != used {
					used = k
					planChanges++
				}
			}
			prev = now
			updates++
		}
		if root >= 0 {
			tr.spans[root].end = prev.Sub(tr.origin).Nanoseconds()
		}
	}
	secs := time.Since(start).Seconds()
	r.attempted += int64(rows)

	snap1 := en.Snapshot()
	sc1, fp1 := en.FilterTelemetry()
	_, _, _, reopt1 := en.PhaseNanos()
	upd := float64(max(1, updates))
	r.set("window.ns_per_append", float64(windowNs)/float64(rows), "ns", rows)
	r.set("window.expiries_per_append", float64(expiries)/float64(rows), "count", rows)
	r.set("core.insert_ns_p50", quantile(insertNs, 0.50), "ns", len(insertNs))
	r.set("core.insert_ns_p99", quantile(insertNs, 0.99), "ns", len(insertNs))
	r.set("core.expire_ns_p50", quantile(expireNs, 0.50), "ns", len(expireNs))
	r.set("core.expire_ns_p99", quantile(expireNs, 0.99), "ns", len(expireNs))
	r.set("core.reopt_ns_per_update", float64(reopt1-reopt0)/upd, "ns", int(updates))
	r.set("core.reopt_pause_max_us", float64(pauseMax)/1e3, "us", 1)
	r.set("core.reopts", float64(snap1.Reopts-snap0.Reopts), "count", 1)
	r.set("core.reopts_skipped", float64(snap1.SkippedReopts-snap0.SkippedReopts), "count", 1)
	r.set("core.candidate_rescores", float64(snap1.CandidateRescores-snap0.CandidateRescores), "count", 1)
	r.set("core.plan_changes", float64(planChanges), "count", 1)
	r.set("relation.chain_ops_per_update", float64(chainOps()-ch0)/upd, "count", int(updates))
	r.set("filter.short_circuits_per_update", float64(sc1-sc0)/upd, "count", int(updates))
	r.set("filter.false_positives_per_update", float64(fp1-fp0)/upd, "count", int(updates))
	r.set("profiler.sampled_frac", float64(en.Profiler().SampledUpdates()-samp0)/upd, "ratio", int(updates))
	plan := en.Plan()
	hit, bytes, entries := 0.0, 0, 0
	for _, cd := range plan.Caches {
		hit += cd.HitRate
		bytes += cd.Bytes
		entries += cd.Entries
	}
	if len(plan.Caches) > 0 {
		hit /= float64(len(plan.Caches))
	}
	r.set("cache.used", float64(len(plan.Caches)), "count", 1)
	r.set("cache.hit_ratio", hit, "ratio", len(plan.Caches))
	r.set("cache.bytes", float64(bytes), "B", 1)
	r.set("cache.entries", float64(entries), "count", 1)
	r.set("trace.overhead", (float64(rows)/secs)/untraced, "ratio", rows)
	return nil
}

// usedKey names the core engine's used-cache set.
func usedKey(en *core.Engine) string {
	var keys []string
	for _, s := range en.UsedCaches() {
		keys = append(keys, s.Key())
	}
	slices.Sort(keys)
	return strings.Join(keys, ";")
}

// phaseSegment drives rows rows through an InstrumentPhases engine, timing
// each Process call, and reports the engine's phase buckets per update plus
// the part of the Process spans no bucket covers.
func (r *run) phaseSegment(c *composed, g generator, rows int) {
	p0, m0, f0, o0 := c.en.PhaseNanos()
	var spanNs, updates int64
	vals := make([]int64, r.w.maxArity())
	for i := 0; i < rows; i++ {
		for _, u := range c.window(r.nextRow(g, vals)) {
			t := time.Now()
			c.process(u)
			spanNs += time.Since(t).Nanoseconds()
			updates++
		}
	}
	r.attempted += int64(rows)
	p1, m1, f1, o1 := c.en.PhaseNanos()
	upd := float64(max(1, updates))
	n := int(updates)
	r.set("core.phase.probe_ns", float64(p1-p0)/upd, "ns", n)
	r.set("core.phase.cache_maint_ns", float64(m1-m0)/upd, "ns", n)
	r.set("core.phase.profiler_ns", float64(f1-f0)/upd, "ns", n)
	r.set("core.phase.reopt_ns", float64(o1-o0)/upd, "ns", n)
	buckets := (p1 - p0) + (m1 - m0) + (f1 - f0) + (o1 - o0)
	r.set("core.phase.unattributed_ns", float64(spanNs-buckets)/upd, "ns", n)
}

// traceSharded times every AppendBatch call and a Flush after every 64
// batches on an adaptive ShardedEngine, then reads per-shard update counts.
func (r *run) traceSharded(tr *tracer) error {
	g := r.w.newGen(r.seed*7919 + 400)
	e, _, err := r.setup(true, g)
	if err != nil {
		return err
	}
	defer e.close()
	bs := r.w.batch
	batch := make([][]int64, bs)
	buf := newRowBuf(r.w, bs)
	var ingressNs int64
	var flushes []float64
	rows := 0
	dur := r.frac(0.1)
	start := time.Now()
	req := int32(0)
	for time.Since(start) < dur || rows == 0 {
		for b := 0; b < 64; b++ {
			rel := r.nextBatch(g, buf, batch)
			t := time.Now()
			e.sh.AppendBatch(r.names[rel], batch)
			now := time.Now()
			tr.record(req, -1, spanBatch, t, now)
			req++
			ingressNs += now.Sub(t).Nanoseconds()
			rows += bs
		}
		t := time.Now()
		e.sh.Flush()
		now := time.Now()
		tr.record(req, -1, spanFlush, t, now)
		req++
		flushes = append(flushes, float64(now.Sub(t).Nanoseconds())/1e3)
	}
	r.attempted += int64(rows/bs + len(flushes))
	var maxU, sumU float64
	shards := e.sh.ShardStats()
	for _, s := range shards {
		maxU = max(maxU, float64(s.Updates))
		sumU += float64(s.Updates)
	}
	r.set("shard.ingress_ns_per_row", float64(ingressNs)/float64(rows), "ns", rows)
	r.set("shard.skew", maxU/(sumU/float64(len(shards))), "ratio", len(shards))
	r.set("shard.flush_us", median(flushes), "us", len(flushes))
	return nil
}

// traceLadder runs one open-loop step at the reference rate for the
// generator figures.
func (r *run) traceLadder() error {
	g := r.w.newGen(r.seed*7919 + 101)
	e, _, err := r.setup(true, g)
	if err != nil {
		return err
	}
	defer e.close()
	st, err := r.openLoop(e, g, r.w.ladder[r.w.refStep], r.frac(0.04))
	if err != nil {
		return err
	}
	r.durableCalls(e)
	r.set("gen.lag_p99_us", quantile(st.lag, 0.99)/1e3, "us", len(st.lag))
	r.set("gen.backlog_rows_end", st.backlog, "rows", 1)
	return nil
}
