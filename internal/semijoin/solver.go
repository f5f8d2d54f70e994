package semijoin

import (
	"fmt"
	"sort"

	"repro/internal/predicate"
	"repro/internal/relation"
)

// Solver amortizes repeated CONS⋉ decisions over one instance — the shape
// of the interactive scenario, where every informativeness test costs two
// Consistent calls and a session issues thousands of them against the same
// R and P. The per-row witness sets {T(R[i], t') | t' ∈ P} (deduplicated,
// ⊆-maximal) depend only on the instance, so the solver computes each row's
// set once and caches it; the backtracking search itself runs on scratch —
// per-depth intersection buffers instead of a fresh predicate per branch,
// and memo keys built in a reusable byte buffer — so a decision allocates
// only its memo table. Results are exactly those of the reference search
// kept in the tests (solver_test.go checks differentially); the worst case
// stays exponential, as Theorem 6.1 demands.
//
// A Solver is not safe for concurrent use.
type Solver struct {
	inst *relation.Instance
	u    *predicate.Universe

	// omega is Ω, the root of every backtracking search.
	omega predicate.Pred
	// wits caches each row's witness set; witsOK marks filled entries
	// (an empty P yields legitimately empty sets).
	wits   [][]predicate.Pred
	witsOK []bool

	// Scratch: seen backs validation, posBuf/negBuf the hypothetical
	// samples of Informative, posWs/negWs the per-call witness tables,
	// levels the per-depth intersection buffers, keyBuf the memo keys.
	seen   []bool
	posBuf []int
	negBuf []int
	posWs  [][]predicate.Pred
	negWs  [][]predicate.Pred
	levels []predicate.Pred
	keyBuf []byte
}

// NewSolver returns a solver for the instance.
func NewSolver(inst *relation.Instance) *Solver {
	u := predicate.NewUniverse(inst)
	return &Solver{
		inst:   inst,
		u:      u,
		omega:  predicate.Omega(u),
		wits:   make([][]predicate.Pred, inst.R.Len()),
		witsOK: make([]bool, inst.R.Len()),
		seen:   make([]bool, inst.R.Len()),
	}
}

// Witnesses returns row ri's deduplicated ⊆-maximal witness predicates,
// computing them on first use. The slice is cached; callers must not
// mutate it.
func (sv *Solver) Witnesses(ri int) []predicate.Pred {
	if !sv.witsOK[ri] {
		sv.wits[ri] = witnesses(sv.inst, sv.u, ri)
		sv.witsOK[ri] = true
	}
	return sv.wits[ri]
}

// Consistent decides CONS⋉ — does a semijoin predicate select all positive
// examples and no negative one? On success it returns a ⊆-maximal such
// predicate, the intersection of one witness per positive example.
func (sv *Solver) Consistent(s Sample) (predicate.Pred, bool, error) {
	theta, ok, err := sv.solve(s)
	if ok {
		theta = theta.Clone() // the search result aliases a scratch buffer
	}
	return theta, ok, err
}

// Informative reports whether both labels for row ri admit a consistent
// predicate extending the sample (two CONS⋉ decisions) — i.e. whether
// asking the user about ri would narrow the candidate space.
func (sv *Solver) Informative(s Sample, ri int) (bool, error) {
	sv.posBuf = append(append(sv.posBuf[:0], s.Pos...), ri)
	_, okPos, err := sv.solve(Sample{Pos: sv.posBuf, Neg: s.Neg})
	if err != nil {
		return false, err
	}
	if !okPos {
		return false, nil
	}
	sv.negBuf = append(append(sv.negBuf[:0], s.Neg...), ri)
	_, okNeg, err := sv.solve(Sample{Pos: s.Pos, Neg: sv.negBuf})
	return okNeg, err
}

// validate checks all indexes are in range and no row is labeled twice.
func (sv *Solver) validate(s Sample) error {
	defer func() {
		for _, i := range s.Pos {
			if i >= 0 && i < len(sv.seen) {
				sv.seen[i] = false
			}
		}
		for _, i := range s.Neg {
			if i >= 0 && i < len(sv.seen) {
				sv.seen[i] = false
			}
		}
	}()
	check := func(idxs []int) error {
		for _, i := range idxs {
			if i < 0 || i >= sv.inst.R.Len() {
				return fmt.Errorf("semijoin: example index %d out of range [0,%d)", i, sv.inst.R.Len())
			}
			if sv.seen[i] {
				return fmt.Errorf("semijoin: tuple %d labeled twice", i)
			}
			sv.seen[i] = true
		}
		return nil
	}
	if err := check(s.Pos); err != nil {
		return err
	}
	return check(s.Neg)
}

// stateKey encodes (depth, theta) into the reusable key buffer.
func (sv *Solver) stateKey(k int, theta predicate.Pred) []byte {
	sv.keyBuf = append(sv.keyBuf[:0], byte(k), byte(k>>8), byte(k>>16), byte(k>>24))
	sv.keyBuf = theta.Set.AppendKey(sv.keyBuf)
	return sv.keyBuf
}

// solve is the backtracking witness assignment behind Consistent, pruned
// because once a partial intersection selects a negative example, every
// refinement does too. The returned predicate aliases a scratch buffer
// (or Ω) and is only valid until the next solver call.
func (sv *Solver) solve(s Sample) (predicate.Pred, bool, error) {
	if err := sv.validate(s); err != nil {
		return predicate.Pred{}, false, err
	}
	negWs := sv.negWs[:0]
	for _, j := range s.Neg {
		negWs = append(negWs, sv.Witnesses(j))
	}
	sv.negWs = negWs

	posWs := sv.posWs[:0]
	for _, i := range s.Pos {
		ws := sv.Witnesses(i)
		if len(ws) == 0 {
			// P is empty: no θ can select a positive example.
			sv.posWs = posWs
			return predicate.Pred{}, false, nil
		}
		posWs = append(posWs, ws)
	}
	sv.posWs = posWs
	// Branch on the positives with the fewest witnesses first.
	sort.SliceStable(posWs, func(a, b int) bool { return len(posWs[a]) < len(posWs[b]) })

	for len(sv.levels) < len(posWs) {
		sv.levels = append(sv.levels, predicate.Pred{})
	}

	// Memoize failed (depth, θ) states: the sub-search depends only on
	// those. The table is per-call (correctness), the keys come from the
	// shared buffer.
	failed := make(map[string]bool)

	var rec func(k int, theta predicate.Pred) (predicate.Pred, bool)
	rec = func(k int, theta predicate.Pred) (predicate.Pred, bool) {
		for _, ws := range sv.negWs {
			if selects(theta, ws) {
				return predicate.Pred{}, false
			}
		}
		if k == len(posWs) {
			return theta, true
		}
		if failed[string(sv.stateKey(k, theta))] {
			return predicate.Pred{}, false
		}
		for _, w := range posWs[k] {
			predicate.IntersectInto(&sv.levels[k], theta, w)
			if got, ok := rec(k+1, sv.levels[k]); ok {
				return got, true
			}
		}
		failed[string(sv.stateKey(k, theta))] = true
		return predicate.Pred{}, false
	}

	theta, ok := rec(0, sv.omega)
	return theta, ok, nil
}
