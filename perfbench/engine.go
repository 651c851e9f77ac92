package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"acache"
)

// sink folds OnResult rows into order-independent multiset hashes, one over
// inserted rows and one over retracted rows. Two engines fed the same input
// must emit the same deltas, so both hashes must agree; keeping retractions
// apart catches a wrong row that a later retraction would cancel.
type sink struct {
	sum   [2]uint64 // [inserts, retractions]
	count [2]int64
}

func (s *sink) add(insert bool, row []int64) {
	h := uint64(0x8badf00d)
	for _, v := range row {
		h = mix(h ^ uint64(v))
	}
	i := 1
	if insert {
		i = 0
	}
	s.sum[i] += h
	s.count[i]++
}

// minus returns the hashes of the rows s received after before.
func (s sink) minus(before sink) sink {
	for i := range s.sum {
		s.sum[i] -= before.sum[i]
		s.count[i] -= before.count[i]
	}
	return s
}

func (s sink) String() string {
	return fmt.Sprintf("+%d rows (%016x) -%d rows (%016x)", s.count[0], s.sum[0], s.count[1], s.sum[1])
}

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// engine wraps one public engine (serial, sharded or durable) with the
// harness state around it: the result sink, the optional result-latency
// hook, and the durable engine's sync/checkpoint schedule.
type engine struct {
	ser   *acache.Engine // serial and durable engines
	sh    *acache.ShardedEngine
	dir   string // durable state directory
	sink  sink
	onRes func(row []int64) // called for inserted rows when set

	appends      int     // appends since build, for the durable schedule
	scheduled    bool    // sync and checkpoint on the fixed schedule
	sinceCkpt    int     // appends since the last checkpoint (WAL length)
	commits      []int64 // SyncWAL latencies, ns
	ckptSecs     []float64
	durableCalls int64 // SyncWAL and SaveCheckpoint calls made
}

// options returns the Options of a workload's engine. Only durable engines
// (and their in-memory mirrors in traces) use the tier.
func (w *workload) options(caching bool, tierDir string) acache.Options {
	opts := acache.Options{DisableCaching: !caching}
	if tierDir != "" {
		opts.Tier = acache.TierOptions{Dir: tierDir, HotBytes: w.hotBytes, PageBytes: w.pageBytes}
	}
	return opts
}

// build constructs a workload engine of the given kind.
func (r *run) build(kind engineKind, caching bool) (*engine, error) {
	e := &engine{}
	q := r.w.query()
	var err error
	switch kind {
	case serialKind:
		e.ser, err = q.Build(r.w.options(caching, ""))
	case shardedKind:
		e.sh, err = q.BuildSharded(r.w.options(caching, ""), acache.ShardOptions{Shards: runtime.NumCPU()})
	case durableKind:
		if e.dir, err = r.newDir("durable"); err != nil {
			return nil, err
		}
		e.ser, _, err = q.BuildDurable(r.w.options(caching, e.dir))
		e.scheduled = true
	}
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	cb := func(insert bool, row []int64) {
		e.sink.add(insert, row)
		if insert && e.onRes != nil {
			e.onRes(row)
		}
	}
	if e.sh != nil {
		e.sh.OnResult(cb)
	} else {
		e.ser.OnResult(cb)
	}
	return e, nil
}

// afterAppend runs the durable engine's fixed sync and checkpoint schedule
// and reports whether it made a durability call.
func (e *engine) afterAppend() (bool, error) {
	if e.dir == "" {
		return false, nil
	}
	e.appends++
	e.sinceCkpt++
	switch {
	case !e.scheduled:
		return false, nil
	case e.appends%checkpointEvery == 0:
		return true, e.checkpoint()
	case e.appends%syncEvery == 0:
		return true, e.sync()
	}
	return false, nil
}

// sync runs a timed SyncWAL.
func (e *engine) sync() error {
	t := time.Now()
	e.durableCalls++
	if err := e.ser.SyncWAL(); err != nil {
		return fmt.Errorf("SyncWAL: %w", err)
	}
	e.commits = append(e.commits, time.Since(t).Nanoseconds())
	return nil
}

// checkpoint runs a timed SaveCheckpoint.
func (e *engine) checkpoint() error {
	t := time.Now()
	e.durableCalls++
	if err := e.ser.SaveCheckpoint(); err != nil {
		return fmt.Errorf("SaveCheckpoint: %w", err)
	}
	e.ckptSecs = append(e.ckptSecs, time.Since(t).Seconds())
	e.sinceCkpt = 0
	return nil
}

func (e *engine) plan() string {
	if e.sh != nil {
		return e.sh.DescribePlan()
	}
	return e.ser.DescribePlan()
}

func (e *engine) stats() acache.Stats {
	if e.sh != nil {
		return e.sh.Stats()
	}
	return e.ser.Stats()
}

func (e *engine) windowLens(w *workload) []int {
	out := make([]int, len(w.rels))
	for i, rd := range w.rels {
		if e.sh != nil {
			out[i] = e.sh.WindowLen(rd.name)
		} else {
			out[i] = e.ser.WindowLen(rd.name)
		}
	}
	return out
}

// close releases the engine. Durable engines discard their on-disk state.
func (e *engine) close() {
	if e.sh != nil {
		e.sh.Close()
	} else {
		e.ser.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// rowBuf holds a chunk of generated rows.
type rowBuf struct {
	arity int
	rels  []int
	vals  []int64
}

func newRowBuf(w *workload, n int) *rowBuf {
	a := w.maxArity()
	return &rowBuf{arity: a, rels: make([]int, n), vals: make([]int64, n*a)}
}

func (b *rowBuf) row(i int) []int64 { return b.vals[i*b.arity : (i+1)*b.arity] }

// generate fills the first n rows from g, in runs of per rows of one
// relation (per is 1 for serial engines and the batch size for sharded
// ones).
func (b *rowBuf) generate(g generator, n, per int) {
	rel := 0
	for i := 0; i < n; i++ {
		if i%per == 0 {
			rel = g.nextRel()
		}
		b.rels[i] = rel
		g.fill(rel, b.row(i))
	}
}

// nextRow writes g's next row into vals and returns its relation and the
// row cut to that relation's arity.
func (r *run) nextRow(g generator, vals []int64) (int, []int64) {
	rel := g.nextRel()
	g.fill(rel, vals)
	return rel, vals[:r.arity[rel]]
}

// nextBatch fills batch, backed by buf, with g's next len(batch) rows, all
// of one relation, and returns that relation.
func (r *run) nextBatch(g generator, buf *rowBuf, batch [][]int64) int {
	rel := g.nextRel()
	for i := range batch {
		g.fill(rel, buf.row(i))
		batch[i] = buf.row(i)[:r.arity[rel]]
	}
	return rel
}

// chunkRows is how many rows the closed loop generates between timed runs
// of appends.
const chunkRows = 256

// feed appends rows rows from g without timing individual calls: the set-up
// path. Sharded engines receive whole batches and are flushed at the end.
func (r *run) feed(e *engine, g generator, rows int) error {
	if e.sh != nil {
		bs := r.w.batch
		batch := make([][]int64, bs)
		buf := newRowBuf(r.w, bs)
		for n := 0; n < rows; n += bs {
			rel := r.nextBatch(g, buf, batch)
			e.sh.AppendBatch(r.names[rel], batch)
			r.attempted++
		}
		e.sh.Flush()
		return nil
	}
	buf := newRowBuf(r.w, chunkRows)
	for n := 0; n < rows; n += chunkRows {
		k := min(chunkRows, rows-n)
		buf.generate(g, k, 1)
		for i := 0; i < k; i++ {
			rel := buf.rels[i]
			e.ser.Append(r.names[rel], buf.row(i)[:r.arity[rel]]...)
			if _, err := e.afterAppend(); err != nil {
				return err
			}
		}
		r.attempted += int64(k)
	}
	return nil
}

// segment is one closed-loop measurement.
type segment struct {
	rows int
	secs float64
	lat  []int64 // per-call latency, ns
	res  []int64 // per-row result latency of serial and durable engines, ns
}

// shardBlock is the number of AppendBatch calls in one closed-loop block of
// a sharded engine.
const shardBlock = 64

// closedLoop drives es as fast as they accept input. With rows > 0 it
// processes exactly that many rows; otherwise it runs for dur (whole
// blocks). es are replicas: engines built alike and fed the same rows so
// far. Each block (chunkRows rows, or shardBlock batches for a sharded
// engine) is generated once and appended to every replica in turn, the
// replica that goes first rotating from block to block; a sharded replica
// is flushed at the end of its block, so that it is idle while the next
// one runs. Every Append or AppendBatch call is timed; durable SyncWAL and
// SaveCheckpoint calls are timed separately. On serial and durable engines
// rows are handed over in bursts of arrivalBurst, each burst as soon as the
// engine has finished the one before, and a row's result latency runs from
// its burst's hand-off to the return of its Append, by which its whole
// result delta (possibly empty) has been emitted. A call's and a row's
// latencies are the least of their replicas', and a block's time the
// least of its replicas' block times. The host's other tenants only ever
// slow a call down, and they rarely hit the same call of two replicas that
// make it a block apart, while a slower engine slows every replica alike.
// With one replica these are the engine's own latencies and times.
func (r *run) closedLoop(es []*engine, g generator, rows int, dur time.Duration) (segment, error) {
	// Sized from earlier segments so the samples do not add garbage.
	c := r.latCap
	if rows > 0 {
		c = rows
	}
	s := segment{lat: make([]int64, 0, c)}
	defer func() { r.latCap = max(r.latCap, len(s.lat)*5/4) }()
	block, per := chunkRows, 1
	if es[0].sh != nil {
		block, per = shardBlock*r.w.batch, r.w.batch
	} else {
		s.res = make([]int64, 0, c)
	}
	buf := newRowBuf(r.w, block)
	lat := make([][]int64, len(es))
	res := make([][]int64, len(es))
	for j := range lat {
		lat[j] = make([]int64, block)
		if s.res != nil {
			res[j] = make([]int64, block)
		}
	}
	start := time.Now()
	for b := 0; ; b++ {
		k := block
		if rows > 0 {
			k = min(k, rows-s.rows)
			if k <= 0 {
				break
			}
			k = (k + per - 1) / per * per // whole batches
		} else if s.rows > 0 && time.Since(start) >= dur {
			break
		}
		buf.generate(g, k, per)
		calls := k / per
		best := int64(math.MaxInt64)
		for i := range es {
			j := (b + i) % len(es)
			var ns int64
			var err error
			if es[j].sh != nil {
				ns = r.timedBatches(es[j], buf, lat[j][:calls])
			} else {
				ns, err = r.timedBlock(es[j], buf, lat[j][:k], res[j][:k])
			}
			if err != nil {
				return s, err
			}
			best = min(best, ns)
		}
		s.secs += float64(best) / 1e9
		for i := 0; i < calls; i++ {
			s.lat = append(s.lat, least(lat, i))
		}
		if s.res != nil {
			for i := 0; i < k; i++ {
				s.res = append(s.res, least(res, i))
			}
		}
		s.rows += k
		r.attempted += int64(calls * len(es))
	}
	return s, nil
}

// least is the smallest of xs[j][i] over j.
func least(xs [][]int64, i int) int64 {
	m := xs[0][i]
	for _, x := range xs[1:] {
		m = min(m, x[i])
	}
	return m
}

// timedBatches appends the rows of buf to sharded e, len(lat) batches of
// one relation each, timing every AppendBatch call into lat, then flushes
// e, and returns the wall time of the whole block.
func (r *run) timedBatches(e *engine, buf *rowBuf, lat []int64) int64 {
	bs := r.w.batch
	batch := make([][]int64, bs)
	start := time.Now()
	for i := range lat {
		rel := buf.rels[i*bs]
		for j := range batch {
			batch[j] = buf.row(i*bs + j)[:r.arity[rel]]
		}
		t := time.Now()
		e.sh.AppendBatch(r.names[rel], batch)
		lat[i] = time.Since(t).Nanoseconds()
	}
	e.sh.Flush()
	return time.Since(start).Nanoseconds()
}

// timedBlock appends the first len(lat) rows of buf to e in bursts of
// arrivalBurst, timing every call into lat and every row's result latency
// into res, and returns the wall time of the whole block. A durable
// engine's sync and checkpoint calls count in the block time, not in any
// latency.
func (r *run) timedBlock(e *engine, buf *rowBuf, lat, res []int64) (int64, error) {
	start := time.Now()
	prev, burst := start, start
	for i := range lat {
		if i%arrivalBurst == 0 {
			burst = prev
		}
		rel := buf.rels[i]
		e.ser.Append(r.names[rel], buf.row(i)[:r.arity[rel]]...)
		now := time.Now()
		lat[i] = now.Sub(prev).Nanoseconds()
		res[i] = now.Sub(burst).Nanoseconds()
		did, err := e.afterAppend()
		if err != nil {
			return 0, err
		}
		if did {
			t := time.Now()
			burst = burst.Add(t.Sub(now))
			now = t
		}
		prev = now
	}
	return time.Since(start).Nanoseconds(), nil
}

// step is one open-loop ladder step.
type step struct {
	delivered float64 // rows processed per second, up to the last one's completion
	result    []int64 // due time → OnResult emission, ns
	lag       []int64 // how late each burst or batch was taken up, ns
	drainNs   int64   // how long after the last due time the last row finished
	backlog   float64 // rows of work outstanding at the scheduled end
}

// maxResultSamples bounds the memory one ladder step's latency samples take.
const maxResultSamples = 4 << 20

// arrivalBurst is how many rows arrive together in the open loop of a
// serial engine, as they do in one AppendBatch call of a sharded one. A
// row's latency then includes the service time of the rows ahead of it in
// its burst, which ties the latency quantiles to the engine's speed rather
// than to the host's timer and interrupt noise.
const arrivalBurst = 64

// openLoop offers rows at a fixed rate for dur. A sharded engine is fed
// fixed-size batches by this goroutine, each row's TS column stamped with
// its due time, and result latency runs from the due time of the newest
// contributing input (the largest TS in an inserted result row) to its
// OnResult emission. A serial engine receives rows in bursts of
// arrivalBurst, all due at once; it takes a burst up when it is due
// (spinning while ahead), and a row's result latency runs from its due time
// to the return of its Append, by which its whole result delta (possibly
// empty) has been emitted.
func (r *run) openLoop(e *engine, g generator, rate float64, dur time.Duration) (step, error) {
	n := max(int(rate*dur.Seconds()), arrivalBurst, r.w.batch)
	period := 1e9 / rate
	st := step{result: make([]int64, 0, min(2*n, maxResultSamples)), lag: make([]int64, 0, n)}
	if tsCols := r.tsOffsets(); tsCols != nil {
		e.onRes = func(row []int64) {
			if len(st.result) >= maxResultSamples {
				return
			}
			due := row[tsCols[0]]
			for _, c := range tsCols[1:] {
				due = max(due, row[c])
			}
			st.result = append(st.result, time.Since(r.origin).Nanoseconds()-due)
		}
		defer func() { e.onRes = nil }()
	}

	start := time.Now()
	// TS values count from the run's origin, so rows of earlier steps (and
	// warm-up rows, whose TS is their small stream index) are always older.
	base := start.Sub(r.origin).Nanoseconds()
	if e.sh != nil {
		bs := r.w.batch
		batch := make([][]int64, bs)
		buf := newRowBuf(r.w, bs)
		n -= n % bs
		for k := 0; k < n; k += bs {
			due := int64(float64(k) * period)
			if d := due - time.Since(start).Nanoseconds(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			st.lag = append(st.lag, time.Since(start).Nanoseconds()-due)
			rel := r.nextBatch(g, buf, batch)
			for _, row := range batch {
				row[r.w.tsCol] = base + due
			}
			e.sh.AppendBatch(r.names[rel], batch)
		}
		e.sh.Flush()
		r.attempted += int64(n / bs)
	} else {
		vals := make([]int64, r.w.maxArity())
		var due int64
		for i := 0; i < n; i++ {
			if i%arrivalBurst == 0 {
				due = int64(float64(i) * period)
				el := time.Since(start).Nanoseconds()
				for el < due {
					el = time.Since(start).Nanoseconds()
				}
				st.lag = append(st.lag, el-due)
			}
			rel, row := r.nextRow(g, vals)
			e.ser.Append(r.names[rel], row...)
			if _, err := e.afterAppend(); err != nil {
				return st, err
			}
			st.result = append(st.result, time.Since(start).Nanoseconds()-due)
		}
		r.attempted += int64(n)
	}
	end := time.Since(start).Nanoseconds()
	last := int64(float64(n) * period)
	st.drainNs = max(0, end-last)
	st.backlog = float64(st.drainNs) / period
	st.delivered = float64(n) / (float64(end) / 1e9)
	return st, nil
}

// passes reports whether a step sustained its rate: result p99 within the
// limit, and the work outstanding at the scheduled end drains within it.
func (st step) passes(limitUs float64) bool {
	if len(st.result) == 0 {
		return false
	}
	return quantile(st.result, 0.99)/1e3 <= limitUs && float64(st.drainNs)/1e3 <= limitUs
}

// tsOffsets returns the result-row columns holding due times, or nil.
func (r *run) tsOffsets() []int {
	if r.w.tsCol < 0 {
		return nil
	}
	var out []int
	off := 0
	for _, rd := range r.w.rels {
		out = append(out, off+r.w.tsCol)
		off += len(rd.attrs)
	}
	return out
}

func (r *run) newDir(prefix string) (string, error) {
	r.dirs++
	d := filepath.Join(r.workDir, fmt.Sprintf("%s-%d", prefix, r.dirs))
	return d, os.MkdirAll(d, 0o755)
}
