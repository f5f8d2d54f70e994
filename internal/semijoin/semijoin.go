// Package semijoin implements inference-related reasoning for semijoin
// predicates R ⋉θ P (Section 6). An example here is a tuple of R alone
// (projection hides the P side), which changes the complexity landscape
// completely: consistency checking — trivially PTIME for equijoins — is
// NP-complete for semijoins (Theorem 6.1).
//
// The package provides:
//
//   - Solver: the one CONS⋉ decision procedure (with predicate witness),
//     backtracking over witness assignments for the positive examples;
//     worst-case exponential, as the theorem predicts. Its test oracles are
//     the reference search it derives from and BruteForce (all θ ⊆ Ω).
//   - The 3SAT → CONS⋉ reduction of Appendix A.1 (reduction.go) and a DPLL
//     SAT solver (sat.go) to cross-validate it.
package semijoin

import (
	"repro/internal/predicate"
	"repro/internal/relation"
)

// Sample is a set of semijoin examples: indexes into R.Tuples labeled
// positive (must appear in R ⋉θ P) or negative (must not).
type Sample struct {
	Pos []int
	Neg []int
}

// witnesses returns the deduplicated most specific predicates
// {T(R[i], t') | t' ∈ P}: the possible "reasons" tuple i is in the
// semijoin. θ selects R[i] iff θ ⊆ w for some witness w.
func witnesses(inst *relation.Instance, u *predicate.Universe, i int) []predicate.Pred {
	seen := make(map[string]bool)
	var out []predicate.Pred
	for pi, tP := range inst.P.Tuples {
		if !inst.PAlive(pi) {
			continue
		}
		w := predicate.T(u, inst.R.Tuples[i], tP)
		k := w.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, w)
		}
	}
	// Keep only ⊆-maximal witnesses: if w ⊆ w', any θ ⊆ w is also ⊆ w'.
	var maxed []predicate.Pred
	for a, w := range out {
		dominated := false
		for b, w2 := range out {
			if a != b && (w.Set.ProperSubsetOf(w2.Set) || (w.Equal(w2) && a > b)) {
				dominated = true
				break
			}
		}
		if !dominated {
			maxed = append(maxed, w)
		}
	}
	return maxed
}

// selects reports whether θ selects the tuple with the given witnesses.
func selects(theta predicate.Pred, ws []predicate.Pred) bool {
	for _, w := range ws {
		if theta.MoreGeneralThan(w) {
			return true
		}
	}
	return false
}
