package strategy

import (
	"fmt"

	"repro/internal/inference"
	"repro/internal/predicate"
)

// The slice-based reference implementation of entropy^K: every set
// operation allocates a fresh predicate and every extension copies its
// lists, which keeps it a direct transcription of Section 4.4 and
// Algorithm 5. The kernel of entropy_general.go is differentially tested
// against it, and BenchmarkColdPath measures it as the "legacy" variant.

// refLook is the reference's per-decision context: the engine, the classes
// informative w.r.t. the base sample, and the counting unit.
type refLook struct {
	e            *inference.Engine
	baseInf      []int
	countClasses bool
}

func newRefLook(e *inference.Engine, countClasses bool) *refLook {
	return &refLook{
		e:            e,
		baseInf:      append([]int(nil), e.InformativeClasses()...),
		countClasses: countClasses,
	}
}

// state is a hypothetical extension of the base sample: the updated T(S+),
// the extended negative list, and which classes the extension labeled.
type state struct {
	tpos  predicate.Pred
	negs  []predicate.Pred
	newly []int
}

func (s state) withPositive(theta predicate.Pred, ci int) state {
	return state{
		tpos:  s.tpos.Intersect(theta),
		negs:  s.negs,
		newly: append(append([]int(nil), s.newly...), ci),
	}
}

func (s state) withNegative(theta predicate.Pred, ci int) state {
	negs := make([]predicate.Pred, len(s.negs), len(s.negs)+1)
	copy(negs, s.negs)
	return state{
		tpos:  s.tpos,
		negs:  append(negs, theta),
		newly: append(append([]int(nil), s.newly...), ci),
	}
}

func (s state) labeled(ci int) bool {
	for _, x := range s.newly {
		if x == ci {
			return true
		}
	}
	return false
}

func (l *refLook) baseState() state {
	return state{tpos: l.e.TPos(), negs: l.e.Negatives()}
}

// delta computes u = |Uninf(S_ext) \ Uninf(S_base)| for the hypothetical
// state. Newly labeled tuples themselves are not counted, but their class
// twins are.
func (l *refLook) delta(s state) int64 {
	var sum int64
	for _, ci := range l.baseInf {
		c := l.e.Classes()[ci]
		w := c.Count
		if l.countClasses {
			w = 1
		}
		if s.labeled(ci) {
			if !l.countClasses {
				sum += w - 1
			}
			continue
		}
		if inference.CertainUnder(s.tpos, s.negs, c.Theta) {
			sum += w
		}
	}
	return sum
}

// informativeUnder returns the base-informative classes still informative
// under the hypothetical state.
func (l *refLook) informativeUnder(s state) []int {
	var out []int
	for _, ci := range l.baseInf {
		if s.labeled(ci) {
			continue
		}
		if !inference.CertainUnder(s.tpos, s.negs, l.e.Classes()[ci].Theta) {
			out = append(out, ci)
		}
	}
	return out
}

// entropy1 is the entropy of Section 4.4 for class ci in state s.
func (l *refLook) entropy1(ci int, s state) Entropy {
	theta := l.e.Classes()[ci].Theta
	up := l.delta(s.withPositive(theta, ci))
	un := l.delta(s.withNegative(theta, ci))
	if up > un {
		up, un = un, up
	}
	return Entropy{Min: up, Max: un}
}

// entropyK is Algorithm 5 generalized to depth k.
func (l *refLook) entropyK(ci int, s state, k int) Entropy {
	if k <= 1 {
		return l.entropy1(ci, s)
	}
	theta := l.e.Classes()[ci].Theta
	branch := func(ext state) Entropy {
		rest := l.informativeUnder(ext)
		if len(rest) == 0 {
			return Entropy{Min: Inf, Max: Inf}
		}
		E := make([]Entropy, 0, len(rest))
		for _, cj := range rest {
			E = append(E, l.entropyK(cj, ext, k-1))
		}
		return selectEntropy(E)
	}
	ep := branch(s.withPositive(theta, ci))
	en := branch(s.withNegative(theta, ci))
	if en.Min < ep.Min || (en.Min == ep.Min && en.Max < ep.Max) {
		return en
	}
	return ep
}

// selectEntropy implements the choice of Algorithms 4 and 6: compute
// m = max{min(e) | e ∈ E}, then return the entropy of the skyline whose Min
// is m — which among entries with Min = m is the one with the largest Max.
func selectEntropy(E []Entropy) Entropy {
	best := Entropy{Min: -1, Max: -1}
	for _, e := range E {
		if e.Min > best.Min || (e.Min == best.Min && e.Max > best.Max) {
			best = e
		}
	}
	return best
}

// refEntropies is Lookahead.Entropies computed by the reference.
func refEntropies(l Lookahead, e *inference.Engine) map[int]Entropy {
	lk := newRefLook(e, l.CountClasses)
	base := lk.baseState()
	out := make(map[int]Entropy, len(lk.baseInf))
	for _, ci := range lk.baseInf {
		out[ci] = lk.entropyK(ci, base, l.depth())
	}
	return out
}

// legacyLookahead is the Lookahead strategy on the reference: the
// per-candidate entropies reduced with the exact serial selection rule.
type legacyLookahead struct {
	K            int
	CountClasses bool
}

func (s legacyLookahead) Name() string { return fmt.Sprintf("legacy-L%dS", s.K) }

func (s legacyLookahead) Next(e *inference.Engine) int {
	lk := newRefLook(e, s.CountClasses)
	base := lk.baseState()
	best := Entropy{Min: -1, Max: -1}
	bestIdx := -1
	for _, ci := range lk.baseInf {
		ent := lk.entropyK(ci, base, s.K)
		if ent.Min > best.Min || (ent.Min == best.Min && ent.Max > best.Max) {
			best = ent
			bestIdx = ci
		}
	}
	return bestIdx
}
