package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"acache"
	"acache/internal/oracle"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// internalQuery builds the internal query the public Query.Build builds for
// the workload: the same schemas and predicates in the same order.
func (r *run) internalQuery() (*query.Query, error) {
	idx := map[string]int{}
	var schemas []*tuple.Schema
	for i, rd := range r.w.rels {
		idx[rd.name] = i
		schemas = append(schemas, tuple.RelationSchema(i, rd.attrs...))
	}
	attr := func(ref string) tuple.Attr {
		rel, name, _ := strings.Cut(ref, ".")
		return tuple.Attr{Rel: idx[rel], Name: name}
	}
	var preds []query.Pred
	for _, j := range r.w.joins {
		preds = append(preds, query.Pred{Left: attr(j[0]), Right: attr(j[1])})
	}
	return query.NewWithThetas(schemas, preds, nil)
}

// oracleCheck feeds the workload's oracle prefix to a default serial
// engine, and the same rows from a second generator to the naive
// recomputation oracle behind the same window operators, and compares the
// signed result multisets. A prefix on which the oracle inserts nothing
// proves only that the engine emits nothing either, so it fails too, except
// on a workload whose results are too rare for any affordable prefix.
func (r *run) oracleCheck() error {
	iq, err := r.internalQuery()
	if err != nil {
		return err
	}
	e, err := r.build(serialKind, true)
	if err != nil {
		return err
	}
	defer e.close()
	o := oracle.New(iq)
	var want sink
	wins := make([]*stream.SlidingWindow, len(r.w.rels))
	for i, rd := range r.w.rels {
		wins[i] = stream.NewSlidingWindow(rd.window)
	}
	seed := r.seed*7919 + 500
	gE, gO := r.w.newGen(seed), r.w.newGen(seed)
	vals := make([]int64, r.w.maxArity())
	n := r.w.oracleRows
	for i := 0; i < n; i++ {
		rel, row := r.nextRow(gE, vals)
		e.ser.Append(r.names[rel], row...)
		rel, row = r.nextRow(gO, vals)
		for _, u := range wins[rel].Append(tuple.Tuple(row).Clone()) {
			u.Rel = rel
			for _, t := range o.Process(u) {
				want.add(u.Op == stream.Insert, t)
			}
		}
	}
	r.attempted += int64(n) + 1
	if want.count[0] == 0 && !r.w.oracleMayBeEmpty {
		return fmt.Errorf("the oracle emits no result on the %d-row prefix, so the check proves nothing", n)
	}
	if e.sink != want {
		return fmt.Errorf("engine and oracle differ on a %d-row prefix: %v vs %v", n, e.sink, want)
	}
	fmt.Fprintf(r.out, "oracle: %d-row prefix, engine and oracle agree on %v\n", n, want)
	return nil
}

// serialMatches replays the sharded engine's input (the warm-up batches and
// segRows timed rows) into a serial Engine through AppendBatch and compares
// results.
func (r *run) serialMatches(seed uint64, segRows int, sharded sink) error {
	bs := r.w.batch
	warm := r.scaled(r.w.warm, 2000)
	total := (warm+bs-1)/bs*bs + segRows
	e, err := r.build(serialKind, true)
	if err != nil {
		return err
	}
	defer e.close()
	g := r.w.newGen(seed)
	batch := make([][]int64, bs)
	buf := newRowBuf(r.w, bs)
	for n := 0; n < total; n += bs {
		rel := r.nextBatch(g, buf, batch)
		e.ser.AppendBatch(r.names[rel], batch)
	}
	r.attempted += int64(total/bs) + 1
	if e.sink != sharded {
		return fmt.Errorf("sharded and serial results differ: %v vs %v", sharded, e.sink)
	}
	return nil
}

// durablePhases runs durability phases, at least minPhases and until budget
// is spent, and reports recovery time and the durable and tier per-layer
// figures, commit latency among them (pooled with any durable closed-loop
// commits).
func (r *run) durablePhases(minPhases int, budget time.Duration) error {
	var recov, ckpt, sync []float64
	var last durableResult
	start := time.Now()
	for i := 0; i < minPhases || time.Since(start) < budget; i++ {
		res, err := r.durablePhase(r.seed*7919 + 200 + uint64(i))
		if err != nil {
			return err
		}
		recov = append(recov, res.recovery...)
		ckpt = append(ckpt, res.ckptSecs...)
		last = res
	}
	for _, c := range r.commits {
		sync = append(sync, float64(c))
	}
	ms := make([]float64, len(recov))
	for i, x := range recov {
		ms[i] = x * 1e3
	}
	fmt.Fprintf(r.out, "durability phases: %d restarts, ms quartiles %s\n", len(recov), quartiles(ms))
	r.set("wal.commit_p99_us", quantile(r.commits, 0.99)/1e3, "us", len(r.commits))
	r.set("recovery_s", fast(recov, false), "s", len(recov))
	r.set("wal.sync_us", median(sync)/1e3, "us", len(sync))
	r.set("wal.bytes_per_update", float64(last.walBytes)/float64(max(1, last.walRecords)), "B", 1)
	r.set("checkpoint.save_s", median(ckpt), "s", len(ckpt))
	r.set("checkpoint.bytes", float64(last.ckptBytes), "B", 1)
	r.set("recovery.records_replayed", float64(last.replayed), "count", 1)
	st := last.stats
	upd := float64(max(1, st.Updates))
	r.set("tier.hot_bytes", float64(st.TierHotBytes), "B", 1)
	r.set("tier.cold_bytes", float64(st.TierColdBytes), "B", 1)
	r.set("tier.promotions_per_update", float64(st.TierPromotions)/upd, "count", int(st.Updates))
	r.set("tier.demotions_per_update", float64(st.TierDemotions)/upd, "count", int(st.Updates))
	return nil
}

// restartsPerPhase is how many times a durability phase restarts from the
// same on-disk state.
const restartsPerPhase = 10

type durableResult struct {
	recovery   []float64
	ckptSecs   []float64
	walBytes   int64
	walRecords int
	ckptBytes  int64
	replayed   uint64
	stats      acache.Stats
}

// durablePhase feeds the same rows to a durable engine (SyncWAL every
// syncEvery appends, SaveCheckpoint every checkpointEvery) and to an
// in-memory engine, abandons the durable engine without closing it, times
// the BuildDurable restart, and checks the restarted engine's windows and
// its post-restart outputs against the in-memory engine.
func (r *run) durablePhase(seed uint64) (durableResult, error) {
	var res durableResult
	d, err := r.build(durableKind, true)
	if err != nil {
		return res, err
	}
	dir := d.dir
	defer os.RemoveAll(dir)
	mem, err := r.build(serialKind, true)
	if err != nil {
		return res, err
	}
	defer mem.close()
	n := r.scaled(r.w.durAppends, 3000)
	if err := r.feed(d, r.w.newGen(seed), n); err != nil {
		return res, err
	}
	if err := r.feed(mem, r.w.newGen(seed), n); err != nil {
		return res, err
	}
	// Commit the tail, so the crash below loses nothing logged.
	if err := d.sync(); err != nil {
		return res, err
	}
	r.durableCalls(d)
	r.commits = append(r.commits, d.commits...)
	res.ckptSecs = d.ckptSecs
	res.walRecords = d.sinceCkpt
	res.walBytes = fileSize(filepath.Join(dir, "wal.log"))
	res.ckptBytes = fileSize(filepath.Join(dir, "engine.ckpt"))
	res.stats = d.ser.Stats()

	// Abandon d without closing: a crash after the last commit. A restart
	// leaves the checkpoint and the WAL as it found them, so abandoning the
	// restarted engine too and restarting again replays the same state.
	d = nil
	var restarted *acache.Engine
	for i := 0; i < restartsPerPhase; i++ {
		// Start from a collected heap, as a restarted process would,
		// rather than collect the abandoned engines inside the timing.
		runtime.GC()
		start := time.Now()
		restarted, _, err = r.w.query().BuildDurable(r.w.options(true, dir))
		res.recovery = append(res.recovery, time.Since(start).Seconds())
		r.attempted++
		if err != nil {
			return res, fmt.Errorf("restart: %w", err)
		}
	}
	e := &engine{ser: restarted}
	restarted.OnResult(e.sink.add)
	defer restarted.Close()
	res.replayed = restarted.Stats().WALRecordsReplayed

	r.attempted += 2
	if got, want := e.windowLens(r.w), mem.windowLens(r.w); !slices.Equal(got, want) {
		return res, fmt.Errorf("restarted windows %v, in-memory windows %v", got, want)
	}
	if res.replayed != uint64(res.walRecords) {
		return res, fmt.Errorf("restart replayed %d WAL records, %d were logged since the checkpoint", res.replayed, res.walRecords)
	}
	before := mem.sink
	k := r.scaled(2000, 500)
	if err := r.feed(e, r.w.newGen(seed+1), k); err != nil {
		return res, err
	}
	if err := r.feed(mem, r.w.newGen(seed+1), k); err != nil {
		return res, err
	}
	r.attempted++
	if want := mem.sink.minus(before); e.sink != want {
		return res, fmt.Errorf("post-restart outputs differ from the in-memory engine's: %v vs %v", e.sink, want)
	}
	return res, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
