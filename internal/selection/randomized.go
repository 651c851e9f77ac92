package selection

import (
	"math"
	"math/rand"
	"sort"

	"acache/internal/lp"
)

// Randomized is the LP-relaxation randomized-rounding O(log n) approximation
// of Theorem B.1: solve the fractional relaxation of the covering integer
// program, then — per rounding round — draw one threshold α_r per sharing
// group and take every cache whose fractional value reaches its group's
// threshold; repeat 3·log m rounds and union the picks so every operator is
// covered with high probability. Overlaps are resolved by keeping the widest
// cache and groups that do not pay for themselves are pruned, exactly as in
// the greedy variant.
//
// rng must be non-nil; the engine passes a seeded source so selections are
// reproducible.
func Randomized(p *Problem, rng *rand.Rand) (Result, error) {
	type item struct {
		cand  int // −1 for operator pseudo-caches
		pipe  int
		start int
		end   int
		proc  float64
		group int // dense group id; operators get singleton groups
	}
	var items []item
	groupCosts := []float64{}
	groupOf := make(map[int]int)
	for i, c := range p.Cands {
		proc := -c.Benefit
		for j := c.Start; j <= c.End; j++ {
			proc += p.OpCosts[c.Pipeline][j]
		}
		if proc < 0 {
			proc = 0
		}
		g, ok := groupOf[c.Group]
		if !ok {
			g = len(groupCosts)
			groupOf[c.Group] = g
			groupCosts = append(groupCosts, p.GroupCosts[c.Group])
		}
		items = append(items, item{cand: i, pipe: c.Pipeline, start: c.Start, end: c.End, proc: proc, group: g})
	}
	for pipe, costs := range p.OpCosts {
		for pos, cost := range costs {
			g := len(groupCosts)
			groupCosts = append(groupCosts, 0)
			items = append(items, item{cand: -1, pipe: pipe, start: pos, end: pos, proc: cost, group: g})
		}
	}

	nItems, nGroups := len(items), len(groupCosts)
	nVars := nItems + nGroups
	prob := lp.Problem{
		C:     make([]float64, nVars),
		Upper: make([]float64, nVars),
	}
	for i, it := range items {
		prob.C[i] = it.proc
		prob.Upper[i] = 1
	}
	for g, c := range groupCosts {
		prob.C[nItems+g] = c
		prob.Upper[nItems+g] = 1
	}
	// Coverage equalities: Σ_{items covering op p} x = 1.
	for pipe, costs := range p.OpCosts {
		for pos := range costs {
			row := make([]float64, nVars)
			for i, it := range items {
				if it.pipe == pipe && it.start <= pos && pos <= it.end {
					row[i] = 1
				}
			}
			prob.AEq = append(prob.AEq, row)
			prob.BEq = append(prob.BEq, 1)
		}
	}
	// Group activation: x_c − z_g ≤ 0, for groups with nonzero cost.
	for i, it := range items {
		if groupCosts[it.group] == 0 {
			continue
		}
		row := make([]float64, nVars)
		row[i] = 1
		row[nItems+it.group] = -1
		prob.AUb = append(prob.AUb, row)
		prob.BUb = append(prob.BUb, 0)
	}
	x, _, err := lp.Solve(prob)
	if err != nil {
		return Result{}, err
	}

	rounds := int(3*math.Log(float64(nItems+1))) + 1
	taken := make(map[int]bool)
	for r := 0; r < rounds; r++ {
		alpha := make([]float64, nGroups)
		for g := range alpha {
			alpha[g] = rng.Float64()
		}
		for i, it := range items {
			if it.cand >= 0 && x[i] >= alpha[it.group] {
				taken[it.cand] = true
			}
		}
	}
	var chosen []int
	for c := range taken {
		chosen = append(chosen, c)
	}
	chosen = resolveOverlaps(p, chosen)
	chosen = pruneNegative(p, chosen)
	sort.Ints(chosen)
	return Result{Chosen: chosen, Value: p.Objective(chosen)}, nil
}
