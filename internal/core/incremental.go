package core

// This file implements the two future-work directions the paper sketches in
// Section 8 item 2:
//
//	(i)  an incremental re-optimization that adds or drops caches based
//	     solely on the statistics that changed, instead of re-running the
//	     offline selection from scratch; and
//	(ii) identification of "unimportant statistics" whose significant
//	     changes tend not to produce new cache selections, so they stop
//	     triggering re-optimizations.
//
// Both are off by default (Config.Incremental) and validated against the
// from-scratch selection by tests and the ablation harness.

// incrementalFullEvery forces a from-scratch selection every Nth
// re-optimization even in incremental mode, bounding the drift a sequence
// of local moves can accumulate.
const incrementalFullEvery = 8

// unimportantAfter is how many consecutive times a candidate's
// beyond-threshold change may fail to alter the selection before the
// candidate's statistics are deemed unimportant and stop triggering
// re-optimizations. A selection change anywhere resets every counter —
// conditions have genuinely moved.
const unimportantAfter = 3

// incrementalSelect starts from the currently used cache set and applies
// greedy local moves — toggling individual candidates and swapping
// overlapping ones — until no move improves the objective. Only candidates
// whose estimates moved beyond the change threshold since the last
// selection (plus the current used set) are considered, which is what makes
// the re-optimization incremental: stable candidates cost nothing.
func (en *Engine) incrementalSelect() []*cand {
	// Current solution: the used set. The map, movable slice, and value()'s
	// group table live on the engine and are reused across rounds.
	if en.incCur == nil {
		en.incCur = make(map[*cand]bool)
		en.incGroups = make(map[string]float64)
	}
	clear(en.incCur)
	cur := en.incCur
	for _, c := range en.cands {
		if c.state == Used {
			cur[c] = true
		}
	}
	// Movable candidates: changed beyond threshold (including having just
	// become estimable — the same conditions that trigger re-optimization),
	// or currently used.
	p := en.cfg.ChangeThreshold
	movable := en.incMovable[:0]
	for _, c := range en.cands {
		if !c.est.Ready || c.quarantine > 0 {
			continue
		}
		changed := !c.selSet ||
			c.est.Ready != c.selEst.Ready ||
			relChange(c.est.Benefit, c.selEst.Benefit) > p ||
			relChange(c.est.Cost, c.selEst.Cost) > p
		if changed || cur[c] {
			movable = append(movable, c)
		}
	}
	en.incMovable = movable
	sortCandsByKey(movable)

	value := func(sel map[*cand]bool) float64 {
		v := 0.0
		groups := en.incGroups
		clear(groups)
		for c := range sel {
			v += c.est.Benefit
			groups[c.spec.SharingID()] = c.est.Cost
		}
		for _, cost := range groups {
			v -= cost
		}
		return v
	}
	overlapsAny := func(c *cand, sel map[*cand]bool) []*cand {
		out := en.incOverlap[:0]
		for d := range sel {
			if d != c && d.spec.Overlaps(c.spec) {
				out = append(out, d)
			}
		}
		en.incOverlap = out
		return out
	}

	best := value(cur)
	for pass := 0; pass < 2*len(movable)+1; pass++ {
		improved := false
		for _, c := range movable {
			if cur[c] {
				// Try dropping c.
				delete(cur, c)
				if v := value(cur); v > best {
					best = v
					improved = true
					continue
				}
				cur[c] = true
				continue
			}
			// Try adding c, evicting whatever it overlaps.
			evicted := overlapsAny(c, cur)
			for _, d := range evicted {
				delete(cur, d)
			}
			cur[c] = true
			if v := value(cur); v > best {
				best = v
				improved = true
				continue
			}
			delete(cur, c)
			for _, d := range evicted {
				cur[d] = true
			}
		}
		if !improved {
			break
		}
	}
	out := en.chosenBuf[:0]
	for c := range cur {
		out = append(out, c)
	}
	sortCandsByKey(out)
	en.chosenBuf = out
	return out
}

// sortCandsByKey orders candidates by placement key (unique per candidate).
// Insertion sort: the slices are tiny and sort.Slice would allocate its
// closure and reflect swapper on every re-optimization.
func sortCandsByKey(cs []*cand) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && placementKey(cs[j].spec) < placementKey(cs[j-1].spec); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// noteSelectionOutcome updates the unimportant-statistics tracker (future
// work (ii)): candidates whose beyond-threshold changes repeatedly leave the
// selection unchanged stop counting toward changedBeyondThreshold; any
// actual selection change rehabilitates everyone.
func (en *Engine) noteSelectionOutcome(changedCands []*cand, selectionChanged bool) {
	if selectionChanged {
		for _, c := range en.cands {
			c.unimportant = 0
		}
		return
	}
	for _, c := range changedCands {
		c.unimportant++
	}
}
