package core

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// starQuery is the n-way star R0(A) ⋈ R1(A) ⋈ … ⋈ Rn−1(A) on R0.A.
func starQuery(t *testing.T, n int) *query.Query {
	t.Helper()
	schemas := make([]*tuple.Schema, n)
	var preds []query.Pred
	for i := 0; i < n; i++ {
		schemas[i] = tuple.RelationSchema(i, "A")
		if i > 0 {
			preds = append(preds, query.Pred{
				Left:  tuple.Attr{Rel: 0, Name: "A"},
				Right: tuple.Attr{Rel: i, Name: "A"},
			})
		}
	}
	q, err := query.New(schemas, preds)
	if err != nil {
		t.Fatalf("query.New: %v", err)
	}
	return q
}

// starFeed appends rows to a star query's count-based windows and runs the
// resulting updates through an engine. Each row goes to a relation drawn
// with probability proportional to weight; its A is uniform over the
// domain, and relations at or past multFrom repeat each draw mult times.
type starFeed struct {
	en       *Engine
	rng      *rand.Rand
	wins     []*stream.SlidingWindow
	weight   []int
	domain   int
	multFrom int
	mult     int
	cur      []int64
	rep      []int
	buf      []stream.Update
	// observe, when set, runs after every processed update with the
	// engine's profiling state before that update.
	observe func(wasProfiling bool)
}

func newStarFeed(en *Engine, n, window, domain, multFrom, mult int, seed int64) *starFeed {
	f := &starFeed{
		en: en, rng: rand.New(rand.NewSource(seed)),
		domain: domain, multFrom: multFrom, mult: mult,
		weight: make([]int, n), cur: make([]int64, n), rep: make([]int, n),
	}
	for i := 0; i < n; i++ {
		f.wins = append(f.wins, stream.NewSlidingWindow(window))
		f.weight[i] = 1
	}
	return f
}

// row appends one row and processes its updates.
func (f *starFeed) row() {
	total := 0
	for _, w := range f.weight {
		total += w
	}
	rel := 0
	for x := f.rng.Intn(total); x >= f.weight[rel]; rel++ {
		x -= f.weight[rel]
	}
	v := int64(f.rng.Intn(f.domain))
	if rel >= f.multFrom {
		if f.rep[rel] == 0 {
			f.cur[rel] = v
		}
		f.rep[rel] = (f.rep[rel] + 1) % f.mult
		v = f.cur[rel]
	}
	f.buf = f.wins[rel].AppendInto(tuple.Tuple{tuple.Value(v)}, f.buf[:0])
	for _, u := range f.buf {
		u.Rel = rel
		was := f.en.profiling
		f.en.Process(u)
		if f.observe != nil {
			f.observe(was)
		}
	}
}

// usedKey names the engine's used-cache set.
func usedKey(en *Engine) string {
	var keys []string
	for _, s := range en.UsedCaches() {
		keys = append(keys, s.Key())
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// TestAdaptiveLoopSettles: on the Figure 9 star at n = 7 (windows 50,
// domain 100, R3..R6 at multiplicity 5) the re-optimizer must converge and
// then go quiet. Per 1M appends after a 100k warm-up, at most 20 rounds may
// change the plan and at most 30% of the updates may fall inside profiling
// phases; re-optimizing every I updates without hysteresis gave 70 plan
// changes with 61% of updates profiled. A stationary stream also must not
// raise a single traffic-share wake.
func TestAdaptiveLoopSettles(t *testing.T) {
	if testing.Short() {
		t.Skip("2.2M updates")
	}
	q := starQuery(t, 7)
	en, err := NewEngine(q, nil, Config{MemoryBudget: -1, GCQuota: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := newStarFeed(en, 7, 50, 100, 3, 5, 3)
	for i := 0; i < 100_000; i++ {
		f.row()
	}
	var updates, profiled, planChanges int
	phaseStart := ""
	f.observe = func(was bool) {
		updates++
		if was {
			profiled++
		}
		switch {
		case !was && en.profiling:
			// A round began with this update; the suspension of full
			// profiles already shows, so read the plan it started from
			// through the current-plan membership.
			phaseStart = planKey(en)
		case was && !en.profiling:
			if usedKey(en) != phaseStart {
				planChanges++
			}
		}
	}
	for i := 0; i < 1_000_000; i++ {
		f.row()
	}
	frac := float64(profiled) / float64(updates)
	t.Logf("%d updates: %.1f%% profiled, %d plan changes, %d selections, interval %d",
		updates, 100*frac, planChanges, en.reopts, en.cfg.ReoptInterval<<en.cad.backoff)
	if planChanges > 20 {
		t.Errorf("%d rounds changed the plan, want ≤ 20", planChanges)
	}
	if frac > 0.30 {
		t.Errorf("%.1f%% of updates inside profiling phases, want ≤ 30%%", 100*frac)
	}
	if en.cad.wakes != 0 {
		t.Errorf("stationary stream raised %d traffic-share wakes", en.cad.wakes)
	}
}

// planKey names the engine's current plan: used caches plus caches
// suspended for the running profiling phase.
func planKey(en *Engine) string {
	var keys []string
	for _, c := range en.currentPlan() {
		keys = append(keys, c.spec.Key())
	}
	return strings.Join(keys, ";")
}

// TestTrafficShiftWakesBackedOffEngine: once the 4-way star has settled at
// the maximum interval, a 20× rate increase of one relation must wake the
// re-optimizer within I/2 updates and start a round within I updates of the
// wake — instead of waiting out the 32·I interval — and the settled,
// stationary prefix must not have raised a wake.
func TestTrafficShiftWakesBackedOffEngine(t *testing.T) {
	q := starQuery(t, 4)
	const interval = 2000
	en, err := NewEngine(q, nil, Config{ReoptInterval: interval, GCQuota: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f := newStarFeed(en, 4, 100, 100, 4, 1, 5)
	for i := 0; en.cad.backoff < maxBackoff || en.profiling; i++ {
		if i == 1_000_000 {
			t.Fatalf("never backed off to the cap: interval %d, last reset by %s",
				en.cfg.ReoptInterval<<en.cad.backoff, en.cad.lastReset)
		}
		f.row()
	}
	if en.cad.wakes != 0 {
		t.Fatalf("stationary prefix raised %d traffic-share wakes", en.cad.wakes)
	}
	if cad, _ := en.Cadence(); cad.Interval != 32*interval {
		t.Fatalf("Cadence interval %d at the cap, want %d", cad.Interval, 32*interval)
	}
	f.weight[0] = 20
	shift := en.updates
	for en.cad.wakes == 0 {
		if en.updates-shift > interval/2 {
			t.Fatalf("no wake within %d updates of the shift", interval/2)
		}
		f.row()
	}
	if cad, _ := en.Cadence(); cad.Interval != interval || cad.LastReset != "traffic shift" {
		t.Errorf("after the wake: %s; want interval %d reset by traffic shift", cad, interval)
	}
	wake := en.updates
	for !en.profiling {
		if en.updates-wake > interval {
			t.Fatalf("no round within %d updates of the wake", interval)
		}
		f.row()
	}
	if en.cad.wakes != 1 {
		t.Errorf("%d wakes, want 1", en.cad.wakes)
	}
}

// TestResumeResetsInterval: resuming paused caching puts the interval back
// to I.
func TestResumeResetsInterval(t *testing.T) {
	q := starQuery(t, 4)
	const interval = 2000
	en, err := NewEngine(q, nil, Config{ReoptInterval: interval, GCQuota: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f := newStarFeed(en, 4, 100, 100, 4, 1, 5)
	for i := 0; en.cad.backoff == 0; i++ {
		if i == 1_000_000 {
			t.Fatal("never backed off")
		}
		f.row()
	}
	en.SetCachingPaused(true)
	for i := 0; i < 1000; i++ {
		f.row()
	}
	en.SetCachingPaused(false)
	if cad, _ := en.Cadence(); cad.Interval != interval || cad.LastReset != "resume" {
		t.Errorf("after resume: %s; want interval %d reset by resume", cad, interval)
	}
}

// TestCadenceExplained: Diagnose is deterministic, and Cadence reports the
// updates since the last plan change.
func TestCadenceExplained(t *testing.T) {
	q := starQuery(t, 4)
	mk := func() *Engine {
		en, err := NewEngine(q, nil, Config{ReoptInterval: 2000, GCQuota: 6, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		f := newStarFeed(en, 4, 100, 100, 4, 1, 5)
		for i := 0; i < 40_000; i++ {
			f.row()
		}
		return en
	}
	a, b := mk(), mk()
	if da, db := a.Diagnose(), b.Diagnose(); da != db {
		t.Errorf("Diagnose differs between identical engines:\n%s\n%s", da, db)
	}
	cad, ok := a.Cadence()
	if !ok {
		t.Fatal("adaptive engine reports no cadence")
	}
	since := cad.SincePlanChange
	if since < 0 || since > a.updates {
		t.Errorf("updates since plan change %d outside [0, %d]", since, a.updates)
	}
	if len(a.UsedCaches()) > 0 && since == a.updates {
		t.Errorf("caches in use but no plan change recorded")
	}
}
