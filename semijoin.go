package joininference

import "repro/internal/semijoin"

// Semijoin support (Section 6 of the paper). Because projection hides the
// P side, examples are rows of R alone — and merely deciding whether *any*
// semijoin predicate is consistent with a set of labeled rows is
// NP-complete (Theorem 6.1). Interactive semijoin inference runs through
// the ordinary session machinery — NewSemijoinSession plus Run or
// NextQuestions/Answer — while the functions below expose the complete
// solver directly; expect exponential worst cases by design.

// SemijoinSample labels rows of R: Keep lists indexes that must appear in
// R ⋉θ P, Drop lists indexes that must not.
type SemijoinSample struct {
	Keep []int
	Drop []int
}

// SemijoinConsistent decides whether any semijoin predicate selects all
// Keep rows and no Drop row; on success it returns one such predicate.
func SemijoinConsistent(inst *Instance, s SemijoinSample) (Pred, bool, error) {
	return semijoin.Consistent(inst, semijoin.Sample{Pos: s.Keep, Neg: s.Drop})
}

// SemijoinEval materializes R ⋉θ P as R-row indexes.
func SemijoinEval(inst *Instance, theta Pred) []int {
	return semijoin.Eval(inst, theta)
}
