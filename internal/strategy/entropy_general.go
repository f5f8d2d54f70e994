package strategy

// The lookahead kernel: entropy^K (Algorithm 5 generalized to depth K) on
// flat word arenas. The pair universe Ω spans W = ⌈|Ω|/64⌉ machine words —
// one for every schema in the paper, two or more for TPC-H-extended
// schemas and the (n+1)(2n+1)-pair universes of Theorem 6.1's 3SAT
// reduction — so each decision snapshots the per-class thetas, the base
// T(S+) and the base negatives into one []uint64 arena of W-word spans,
// and hypothetical extension chains run on those spans in place:
//
//   - a positive extension writes its T(S+) ∩ θ into the scratch slot of
//     its chain depth;
//   - a negative extension appends its θ to the candidate's negative
//     buffer, which the root refills from the base negatives with room for
//     K more;
//   - the per-level informative lists live in the scratch's rest arena.
//
// Steady-state candidate evaluation therefore allocates nothing. The
// certainty test of Lemmas 3.3/3.4 is the innermost loop, run Θ(|I|³)
// times per L2S question (I = informative classes), so it and the delta
// sweep around it are specialised by W, which the kernel reads off the
// universe: one word, two words, and a generic loop for three or more.
// oracle_test.go keeps the slice-based reference implementation the
// kernel is differentially tested against.

import (
	"repro/internal/bitset"
	"repro/internal/inference"
)

// maxDepth bounds the lookahead depth: per-candidate cost grows as |I|^K,
// so no tool asks for more than K = 3, and deeper requests are rejected.
const maxDepth = 8

// look carries the per-decision context of the kernel: the classes
// informative w.r.t. the *base* sample (all Uninf differences in Algorithm
// 5 are taken against the base sample S) and the arena snapshot of that
// sample.
type look struct {
	// baseInf: informative class indexes w.r.t. the engine's sample. The
	// kernel addresses classes by their position in baseInf.
	baseInf []int

	W       int      // words per predicate
	tpos    []uint64 // base T(S+), W words
	thetas  []uint64 // per baseInf position, W words each
	negs    []uint64 // base negatives, W words each
	weights []int64  // per baseInf position: the counting unit's weight
}

// newLook snapshots the engine's current sample for one decision.
// countClasses switches the counting unit from tuples (the paper's, via
// class cardinalities) to distinct classes; see DESIGN.md ablations.
func newLook(e *inference.Engine, countClasses bool) *look {
	l := &look{baseInf: e.InformativeClasses()}
	if len(l.baseInf) == 0 {
		return l
	}
	W := bitset.WordsFor(e.U.Size())
	l.W = W
	// T(S+), thetas and negatives share one allocation.
	negs := e.Negatives()
	arena := make([]uint64, (1+len(l.baseInf)+len(negs))*W)
	l.tpos = arena[:W]
	e.TPos().Set.CopyWords(l.tpos)
	l.thetas = arena[W : (1+len(l.baseInf))*W]
	l.negs = arena[(1+len(l.baseInf))*W:]
	cs := e.Classes()
	l.weights = make([]int64, len(l.baseInf))
	for pos, ci := range l.baseInf {
		cs[ci].Theta.Set.CopyWords(l.theta(pos))
		l.weights[pos] = 1
		if !countClasses {
			l.weights[pos] = cs[ci].Count
		}
	}
	for i, n := range negs {
		n.Set.CopyWords(l.negs[i*W : (i+1)*W])
	}
	return l
}

// theta returns the arena span of baseInf position pos's theta.
func (l *look) theta(pos int) []uint64 {
	return l.thetas[pos*l.W : (pos+1)*l.W]
}

// lookScratch is the per-candidate scratch of one depth-k evaluation,
// sized once and reused so steady-state evaluation allocates nothing.
// Concurrent candidate evaluations use distinct scratches (NextCtx pools
// them).
type lookScratch struct {
	// rest is the per-level informative-position arena: chain depth d
	// (1-based) appends into rest[(d-1)·|I| : d·|I|], so a frame's list
	// survives the deeper recursion it drives.
	rest []int32
	// negs is the negative buffer: the base negatives plus room for the
	// ≤ k negative extensions along one chain.
	negs []uint64
	// tpos holds k W-word slots, the hypothetical T(S+) after a positive
	// extension at each chain depth; inter is the W-word intersection
	// buffer of the generic certainty test.
	tpos  []uint64
	inter []uint64
}

// newScratch sizes a scratch for depth-k evaluation; its word buffers
// share one allocation.
func (l *look) newScratch(k int) *lookScratch {
	nneg := len(l.negs) + k*l.W
	words := make([]uint64, nneg+(k+1)*l.W)
	return &lookScratch{
		rest:  make([]int32, 0, k*len(l.baseInf)),
		negs:  words[:0:nneg],
		tpos:  words[nneg : nneg+k*l.W],
		inter: words[nneg+k*l.W:],
	}
}

// restBuf returns the empty per-level informative buffer for chain depth d.
func (l *look) restBuf(sc *lookScratch, depth int) []int32 {
	K := len(l.baseInf)
	off := (depth - 1) * K
	return sc.rest[off : off : off+K]
}

// gstate is a hypothetical extension of the base sample: its T(S+), its
// negatives (the base ones followed by the chain's), and the chain depth,
// which is the number of classes the extension labeled. tpos and negs
// alias the candidate's scratch, and the struct is a value: extensions
// copy it on the stack and never allocate.
//
// The chain's labeled classes need no list of their own: each is certain
// under the extension (a positive θ contains the new T(S+) ∩ θ, a negative
// θ is itself a negative), so the sweeps below skip them as certain and
// delta corrects for them by count alone.
type gstate struct {
	tpos  []uint64
	negs  []uint64
	depth int
}

// groot returns the base state on scratch sc, refilling its negative
// buffer from the base negatives.
func (l *look) groot(sc *lookScratch) gstate {
	sc.negs = append(sc.negs[:0], l.negs...)
	return gstate{tpos: l.tpos, negs: sc.negs}
}

// gwithPositive intersects the chain's T(S+) with pos's theta into the
// scratch slot of the current depth. Slot d is written only by an
// extension made from a depth-d state: ancestors occupy lower slots, and
// sibling branches run strictly one after the other, so reuse is safe.
func (l *look) gwithPositive(s gstate, pos int, sc *lookScratch) gstate {
	dst := sc.tpos[s.depth*l.W : (s.depth+1)*l.W]
	bitset.IntersectWords(dst, s.tpos, l.theta(pos))
	return gstate{tpos: dst, negs: s.negs, depth: s.depth + 1}
}

// gwithNegative appends pos's theta to the negative buffer in place. The
// capacity reserved by newScratch makes the append allocation-free; the
// words it overwrites are safe to reuse for the same reason as the T(S+)
// slots.
func (l *look) gwithNegative(s gstate, pos int) gstate {
	return gstate{tpos: s.tpos, negs: append(s.negs, l.theta(pos)...), depth: s.depth + 1}
}

// fcertain is CertainUnder on one-word predicates.
func fcertain(tpos uint64, negs []uint64, theta uint64) bool {
	if tpos&^theta == 0 { // Lemma 3.3: tpos ⊆ theta
		return true
	}
	inter := tpos & theta
	for _, n := range negs { // Lemma 3.4: inter ⊆ some negative
		if inter&^n == 0 {
			return true
		}
	}
	return false
}

// gcertain2 is CertainUnder on two-word predicates.
func gcertain2(t0, t1 uint64, negs []uint64, th0, th1 uint64) bool {
	i0, i1 := t0&th0, t1&th1
	if i0 == t0 && i1 == t1 { // Lemma 3.3
		return true
	}
	for off := 0; off+1 < len(negs); off += 2 { // Lemma 3.4
		if i0&^negs[off] == 0 && i1&^negs[off+1] == 0 {
			return true
		}
	}
	return false
}

// gcertainN is CertainUnder on predicates of any width: one fused pass
// builds the Lemma 3.4 intersection into inter and detects the Lemma 3.3
// subset (inter == tpos) along the way.
func gcertainN(tpos, negs, theta, inter []uint64) bool {
	W := len(tpos)
	theta, inter = theta[:W], inter[:W]
	sub := true
	for i, w := range tpos {
		v := w & theta[i]
		inter[i] = v
		if v != w {
			sub = false
		}
	}
	if sub {
		return true
	}
	for off := 0; off+W <= len(negs); off += W {
		n := negs[off : off+W]
		ok := true
		for i, w := range inter {
			if w&^n[i] != 0 {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// gcertain reports whether baseInf position pos is certain under s.
func (l *look) gcertain(s *gstate, pos int, sc *lookScratch) bool {
	switch l.W {
	case 1:
		return fcertain(s.tpos[0], s.negs, l.thetas[pos])
	case 2:
		return gcertain2(s.tpos[0], s.tpos[1], s.negs, l.thetas[2*pos], l.thetas[2*pos+1])
	}
	return gcertainN(s.tpos, s.negs, l.theta(pos), sc.inter)
}

// gdelta computes u = |Uninf(S_ext) \ Uninf(S_base)| for the hypothetical
// state: the number of tuples, informative under the base sample, that the
// extension makes uninformative. Newly labeled tuples themselves are not
// counted (the paper's Figure 5 counts 11, not 12, for the ∅ tuple), but
// their class twins are — hence one unit off per labeled class. This is
// the innermost Θ(|I|) sweep of the lookahead, so each word width gets its
// own loop with the certainty test inlined or called directly.
func (l *look) gdelta(s *gstate, sc *lookScratch) int64 {
	var sum int64
	negs := s.negs
	switch l.W {
	case 1:
		t := s.tpos[0]
		for pos, th := range l.thetas {
			if fcertain(t, negs, th) {
				sum += l.weights[pos]
			}
		}
	case 2:
		t0, t1 := s.tpos[0], s.tpos[1]
		for pos, w := range l.weights {
			if gcertain2(t0, t1, negs, l.thetas[2*pos], l.thetas[2*pos+1]) {
				sum += w
			}
		}
	default:
		for pos, w := range l.weights {
			if gcertainN(s.tpos, negs, l.theta(pos), sc.inter) {
				sum += w
			}
		}
	}
	return sum - int64(s.depth)
}

// ginformativeInto appends the baseInf positions still informative under s
// to buf (a per-level restBuf slot).
func (l *look) ginformativeInto(s *gstate, buf []int32, sc *lookScratch) []int32 {
	for pos := range l.weights {
		if !l.gcertain(s, pos, sc) {
			buf = append(buf, int32(pos))
		}
	}
	return buf
}

// gentropy1 is the entropy of Section 4.4 for baseInf position pos,
// computed in the hypothetical state s (the base state for plain L1S; for
// deeper lookahead the u counts remain differences against the base
// sample).
func (l *look) gentropy1(pos int, s gstate, sc *lookScratch) Entropy {
	extP := l.gwithPositive(s, pos, sc)
	up := l.gdelta(&extP, sc)
	extN := l.gwithNegative(s, pos)
	un := l.gdelta(&extN, sc)
	if up > un {
		up, un = un, up
	}
	return Entropy{Min: up, Max: un}
}

// gentropyKRoot evaluates candidate pos from the base state on the given
// scratch.
func (l *look) gentropyKRoot(pos, k int, sc *lookScratch) Entropy {
	return l.gentropyK(pos, l.groot(sc), k, sc)
}

// gentropyK generalizes Algorithm 5 to depth k: the guaranteed information
// from labeling position pos and then k−1 further tuples, pessimistic over
// the user's answers and optimistic over our own future choices. k = 2 is
// exactly the paper's entropy² (Algorithm 5); k = 1 is entropy.
func (l *look) gentropyK(pos int, s gstate, k int, sc *lookScratch) Entropy {
	if k <= 1 {
		return l.gentropy1(pos, s, sc)
	}
	ep := l.gbranch(l.gwithPositive(s, pos, sc), k, sc)
	en := l.gbranch(l.gwithNegative(s, pos), k, sc)
	// Lines 13–14: keep the pessimistic branch (smaller Min); on a tie the
	// smaller Max, staying conservative and deterministic.
	if en.Min < ep.Min || (en.Min == ep.Min && en.Max < ep.Max) {
		return en
	}
	return ep
}

// gbranch is one answer branch of Algorithm 5 lines 3–12: the best
// entropy^(k−1) among the classes still informative under ext, or (∞,∞)
// when none remain. The selection rule of Algorithms 4 and 6 (max Min,
// tie-break max Max, first wins) is folded into the loop, so no entropy
// slice is materialized.
func (l *look) gbranch(ext gstate, k int, sc *lookScratch) Entropy {
	rest := l.ginformativeInto(&ext, l.restBuf(sc, ext.depth), sc)
	if len(rest) == 0 {
		// No informative tuple left: interaction ends (lines 3–5).
		return Entropy{Min: Inf, Max: Inf}
	}
	best := Entropy{Min: -1, Max: -1}
	for _, j := range rest {
		e := l.gentropyK(int(j), ext, k-1, sc)
		if e.Min > best.Min || (e.Min == best.Min && e.Max > best.Max) {
			best = e
		}
	}
	return best
}
