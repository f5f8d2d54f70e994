package semijoin

import (
	"fmt"
	"sort"

	"repro/internal/predicate"
	"repro/internal/relation"
)

// The reference CONS⋉ search: the package-level backtracking decision the
// Solver was derived from, kept in the tests as its differential oracle
// (solver_test.go), together with the definitional BruteForce.

// Validate checks all indexes are in range and no tuple is labeled twice.
func (s Sample) Validate(inst *relation.Instance) error {
	seen := make(map[int]bool)
	for _, i := range append(append([]int(nil), s.Pos...), s.Neg...) {
		if i < 0 || i >= inst.R.Len() {
			return fmt.Errorf("semijoin: example index %d out of range [0,%d)", i, inst.R.Len())
		}
		if seen[i] {
			return fmt.Errorf("semijoin: tuple %d labeled twice", i)
		}
		seen[i] = true
	}
	return nil
}

// Consistent decides CONS⋉: is there a semijoin predicate selecting all
// positive examples and none of the negative ones? On success it returns
// one such predicate (a ⊆-maximal one: the intersection of one witness per
// positive example). The search is a backtracking assignment of witnesses,
// pruned by the monotonicity fact that if a partial intersection already
// selects a negative example, every refinement does too.
func Consistent(inst *relation.Instance, s Sample) (predicate.Pred, bool, error) {
	if err := s.Validate(inst); err != nil {
		return predicate.Pred{}, false, err
	}
	u := predicate.NewUniverse(inst)

	negWs := make([][]predicate.Pred, len(s.Neg))
	for k, j := range s.Neg {
		negWs[k] = witnesses(inst, u, j)
	}
	violates := func(theta predicate.Pred) bool {
		for _, ws := range negWs {
			if selects(theta, ws) {
				return true
			}
		}
		return false
	}

	posWs := make([][]predicate.Pred, len(s.Pos))
	for k, i := range s.Pos {
		posWs[k] = witnesses(inst, u, i)
		if len(posWs[k]) == 0 {
			// P is empty: no θ can select a positive example.
			return predicate.Pred{}, false, nil
		}
	}
	// Branch on the positives with the fewest witnesses first.
	sort.SliceStable(posWs, func(a, b int) bool { return len(posWs[a]) < len(posWs[b]) })

	// Memoize failed (depth, θ) states: the sub-search depends only on
	// those.
	failed := make(map[string]bool)

	var rec func(k int, theta predicate.Pred) (predicate.Pred, bool)
	rec = func(k int, theta predicate.Pred) (predicate.Pred, bool) {
		if violates(theta) {
			return predicate.Pred{}, false
		}
		if k == len(posWs) {
			return theta, true
		}
		key := fmt.Sprintf("%d|%s", k, theta.Key())
		if failed[key] {
			return predicate.Pred{}, false
		}
		for _, w := range posWs[k] {
			next := theta.Intersect(w)
			if got, ok := rec(k+1, next); ok {
				return got, true
			}
		}
		failed[key] = true
		return predicate.Pred{}, false
	}

	theta, ok := rec(0, predicate.Omega(u))
	return theta, ok, nil
}

// Informative reports whether both labels for tuple ri admit a consistent
// predicate extending the sample (two CONS⋉ calls) — i.e. whether asking
// the user about ri would narrow the candidate space.
func Informative(inst *relation.Instance, s Sample, ri int) (bool, error) {
	asPos := Sample{Pos: append(append([]int(nil), s.Pos...), ri), Neg: s.Neg}
	_, okPos, err := Consistent(inst, asPos)
	if err != nil {
		return false, err
	}
	if !okPos {
		return false, nil
	}
	asNeg := Sample{Pos: s.Pos, Neg: append(append([]int(nil), s.Neg...), ri)}
	_, okNeg, err := Consistent(inst, asNeg)
	if err != nil {
		return false, err
	}
	return okNeg, nil
}

// BruteForce decides CONS⋉ by enumerating every θ ⊆ Ω; usable only for
// small universes (it panics above 24 pairs). Test oracle for Consistent.
func BruteForce(inst *relation.Instance, s Sample) (predicate.Pred, bool, error) {
	if err := s.Validate(inst); err != nil {
		return predicate.Pred{}, false, err
	}
	u := predicate.NewUniverse(inst)
	if u.Size() > 24 {
		panic(fmt.Sprintf("semijoin: BruteForce limited to 24 pairs, got %d", u.Size()))
	}
	allWs := make(map[int][]predicate.Pred)
	for _, i := range append(append([]int(nil), s.Pos...), s.Neg...) {
		allWs[i] = witnesses(inst, u, i)
	}
	for mask := 0; mask < 1<<uint(u.Size()); mask++ {
		var theta predicate.Pred
		for b := 0; b < u.Size(); b++ {
			if mask&(1<<uint(b)) != 0 {
				theta.Set.Add(b)
			}
		}
		ok := true
		for _, i := range s.Pos {
			if !selects(theta, allWs[i]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, j := range s.Neg {
			if selects(theta, allWs[j]) {
				ok = false
				break
			}
		}
		if ok {
			return theta, true, nil
		}
	}
	return predicate.Pred{}, false, nil
}
