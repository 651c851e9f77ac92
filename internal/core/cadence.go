package core

import (
	"fmt"
	"math"
	"time"
)

// Re-optimization cadence. The paper re-optimizes every I updates
// (Section 4.5); on a stable stream that keeps re-profiling — shadow
// estimators live, used caches suspended every few rounds — long after the
// plan has settled. The engine therefore backs off: every round that leaves
// the plan unchanged (or is skipped by the p-threshold) with every candidate
// estimated doubles the interval, up to I·2^maxBackoff, and the interval
// returns to I when something could have changed the best plan:
//
//   - a round changes the plan;
//   - the monitor demotes a used cache (Section 4.5(a));
//   - a traffic-share wake: a relation's share of the last I updates differs
//     by more than p from its share between the last two rounds' ends, or
//     between the last wake and the end of the round that followed it (the
//     traffic the current plan was chosen under);
//   - caching resumes after a pause.
//
// Every reset takes effect at the next I-update boundary. A wake does not
// start a round at once: right after a shift the profiler's δ windows of the
// pipelines whose traffic fell still describe the old mix, so a round started
// then picks a plan for traffic that has gone. Both checks sit on due points
// the batch driver already respects (monitor and I boundaries), so serial
// and batched processing stay bit-identical, and none of this depends on the
// adaptivity fast paths.
//
// Two rules keep noisy estimates from undoing a settled plan. Plan
// hysteresis (beatsCurrentPlan) adopts a new selection only when it beats
// the current plan by more than p. And a cache the monitor demotes sits out
// the next 4^strikes rounds (at most maxQuarantine), strikes counting its
// demotions since the last wake: selection tends to adopt a cache while its
// sampled maintenance cost reads low, the monitor then demotes it, and
// without the quarantine the next round re-adopts it. A wake clears every
// quarantine, since evidence gathered under the old traffic mix is stale.

// maxBackoff caps the interval at I·2^maxBackoff = 32·I.
const maxBackoff = 5

// wakeSigmas is how many standard errors a traffic share must move, on top
// of the relative threshold p, before it wakes the re-optimizer: with a small
// I the share of the last I updates is noisy enough that p alone would wake a
// stationary stream.
const wakeSigmas = 4

// maxQuarantine caps how many rounds a repeatedly demoted cache sits out.
const maxQuarantine = 32

// maxShareSlots caps the traffic-share ring at this many monitor intervals;
// with the default I/10 monitor interval the ring spans exactly I updates.
const maxShareSlots = 64

// resetCause names what last put the interval back to I.
type resetCause uint8

const (
	resetStart resetCause = iota
	resetPlanChange
	resetDemotion
	resetTrafficShift
	resetResume
)

func (r resetCause) String() string {
	switch r {
	case resetPlanChange:
		return "plan change"
	case resetDemotion:
		return "demotion"
	case resetTrafficShift:
		return "traffic shift"
	case resetResume:
		return "resume"
	default:
		return "start"
	}
}

// cadence is the engine's re-optimization schedule state.
type cadence struct {
	// backoff is k: a round is due every I·2^k updates; idle counts the
	// I-update blocks since the last round started.
	backoff   int
	idle      int
	lastReset resetCause
	// planChangedAt is the update count at the last plan change (selection
	// or demotion).
	planChangedAt int
	// wakes counts traffic-share wakes.
	wakes int

	// ring holds per-relation tick snapshots taken at monitor boundaries
	// (slots × relations); ringN counts the snapshots taken since the last
	// clear. The recent window — the last slots·MonitorInterval updates — is
	// the difference between now and the oldest snapshot.
	ring  []int64
	slots int
	ringN int
	// refCount holds each relation's ticks between the ends of the last two
	// rounds, or between the last wake and the end of the round after it —
	// the traffic mix the plan was chosen under — and refTotal their sum (0
	// while no reference is set); roundTicks snapshots the tick counters
	// where the next reference starts.
	refCount   []int64
	refTotal   int64
	roundTicks []int64
}

// initCadence sizes the traffic-share ring; called once at construction for
// adaptive engines.
func (en *Engine) initCadence() {
	slots := en.cfg.ReoptInterval / en.cfg.MonitorInterval
	if slots < 1 {
		slots = 1
	}
	if slots > maxShareSlots {
		slots = maxShareSlots
	}
	n := en.q.N()
	en.cad.slots = slots
	en.cad.ring = make([]int64, slots*n)
	en.cad.refCount = make([]int64, n)
	en.cad.roundTicks = make([]int64, n)
}

// resetInterval puts the interval back to I.
func (en *Engine) resetInterval(why resetCause) {
	en.cad.backoff = 0
	en.cad.lastReset = why
}

// roundDone updates the schedule after a completed round: a plan change
// resets the interval; an unchanged plan doubles it up to the cap, provided
// every candidate had a ready estimate — a round that could not score some
// candidate (a warming pipeline) is no evidence that the plan has settled.
// Either way the traffic mix since the previous round's end becomes the
// wake's reference.
func (en *Engine) roundDone(planChanged bool) {
	if planChanged {
		en.resetInterval(resetPlanChange)
		en.cad.planChangedAt = en.updates
	} else if en.cad.backoff < maxBackoff && en.estimatesReady() {
		en.cad.backoff++
	}
	for _, c := range en.cands {
		if c.quarantine > 0 {
			c.quarantine--
		}
	}
	cd := &en.cad
	cd.refTotal = 0
	for r := range cd.refCount {
		now := en.pf.RelTicks(r)
		cd.refCount[r] = now - cd.roundTicks[r]
		cd.refTotal += cd.refCount[r]
		cd.roundTicks[r] = now
	}
}

// estimatesReady reports whether every candidate has a ready estimate.
func (en *Engine) estimatesReady() bool {
	for _, c := range en.cands {
		if !c.est.Ready {
			return false
		}
	}
	return true
}

// resumeCadence restarts the schedule when caching resumes after a pause:
// the interval goes back to I, and the traffic-share history and demotion
// records are forgotten (no snapshots were taken while paused, and the
// traffic may have moved).
func (en *Engine) resumeCadence() {
	en.sinceReopt = 0
	en.sinceMonitor = 0
	en.cad.idle = 0
	en.resetInterval(resetResume)
	en.cad.ringN = 0
	en.cad.refTotal = 0
	for r := range en.cad.roundTicks {
		en.cad.roundTicks[r] = en.pf.RelTicks(r)
	}
	en.clearQuarantine()
}

// advanceMonitor counts k updates toward the next monitor boundary and, at
// the boundary, runs the Section 4.5(a) monitor and the traffic-share check.
// Serial and batched processing both call it (runLimit keeps a run from
// crossing a boundary).
func (en *Engine) advanceMonitor(k int) {
	en.sinceMonitor += k
	if en.sinceMonitor < en.cfg.MonitorInterval {
		return
	}
	en.sinceMonitor = 0
	tm := time.Now()
	en.monitorUsed()
	en.checkTraffic()
	en.reoptNanos += time.Since(tm).Nanoseconds()
}

// advanceReopt counts k non-profiling updates toward the next I boundary and
// starts a round when one is due there: I·2^k updates after the last one.
// Serial and batched processing both call it; runLimit keeps a run from
// crossing an I boundary, so both paths start rounds at the same update.
func (en *Engine) advanceReopt(k int) {
	en.sinceReopt += k
	if en.sinceReopt < en.cfg.ReoptInterval {
		return
	}
	tm := time.Now()
	en.sinceReopt = 0
	en.cad.idle++
	if en.cad.idle >= 1<<en.cad.backoff {
		en.cad.idle = 0
		en.startReopt()
	}
	en.reoptNanos += time.Since(tm).Nanoseconds()
}

// checkTraffic snapshots the per-relation tick counters into the share ring
// and, outside profiling phases and while the interval is backed off, raises
// a wake (the interval goes back to I) when some relation's share of
// the recent window moved by more than p from its share of the reference
// window, and by more than wakeSigmas standard errors. The error counts each
// window's updates as pairs (a count window expires one tuple per arrival),
// so a share s over N updates has variance 2·s·(1−s)/N. Relations under the
// profiler's negligible-traffic share (1/50) in both windows are ignored:
// the estimates treat them as idle anyway.
func (en *Engine) checkTraffic() {
	cd := &en.cad
	n := en.q.N()
	slot := cd.ringN % cd.slots
	oldest := cd.ring[slot*n : (slot+1)*n]
	if cd.ringN >= cd.slots && cd.refTotal > 0 && !en.profiling && cd.backoff > 0 {
		var recent int64
		for r := 0; r < n; r++ {
			recent += en.pf.RelTicks(r) - oldest[r]
		}
		if recent > 0 {
			p := en.cfg.ChangeThreshold
			for r := 0; r < n; r++ {
				share := float64(en.pf.RelTicks(r)-oldest[r]) / float64(recent)
				was := float64(cd.refCount[r]) / float64(cd.refTotal)
				if share*50 < 1 && was*50 < 1 {
					continue
				}
				se := math.Sqrt(2 * was * (1 - was) * (1/float64(recent) + 1/float64(cd.refTotal)))
				if relChange(share, was) > p && math.Abs(share-was) > wakeSigmas*se {
					cd.wakes++
					en.resetInterval(resetTrafficShift)
					en.clearQuarantine()
					// The next reference starts here: traffic before the
					// shift says nothing about the new mix.
					for j := 0; j < n; j++ {
						cd.roundTicks[j] = en.pf.RelTicks(j)
					}
					break
				}
			}
		}
	}
	for r := 0; r < n; r++ {
		oldest[r] = en.pf.RelTicks(r)
	}
	cd.ringN++
}

// Cadence is the re-optimization schedule as Explain reports it.
type Cadence struct {
	// Interval is the current interval in updates, I·2^Backoff.
	Interval, Backoff int
	// SincePlanChange counts the updates since a round or a demotion last
	// changed the plan.
	SincePlanChange int
	// LastReset names what last put the interval back to I: "start",
	// "plan change", "demotion", "traffic shift" or "resume".
	LastReset string
}

// Cadence reports the re-optimization schedule; ok is false for engines
// that do not adapt (forced caches or caching disabled).
func (en *Engine) Cadence() (c Cadence, ok bool) {
	if len(en.cfg.ForcedCaches) > 0 || en.cfg.DisableCaching {
		return Cadence{}, false
	}
	return Cadence{
		Interval:        en.cfg.ReoptInterval << en.cad.backoff,
		Backoff:         en.cad.backoff,
		SincePlanChange: en.updates - en.cad.planChangedAt,
		LastReset:       en.cad.lastReset.String(),
	}, true
}

// String renders the schedule as one line.
func (c Cadence) String() string {
	return fmt.Sprintf("re-optimizing every %d updates (I·2^%d); plan unchanged for %d updates; interval last reset by %s",
		c.Interval, c.Backoff, c.SincePlanChange, c.LastReset)
}

// clearQuarantine forgets every candidate's demotion record: the traffic
// moved, so evidence gathered under the old mix no longer applies.
func (en *Engine) clearQuarantine() {
	for _, c := range en.cands {
		c.strikes, c.quarantine = 0, 0
	}
}
