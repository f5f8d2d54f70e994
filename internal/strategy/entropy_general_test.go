package strategy

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/inference"
	"repro/internal/oracle"
	"repro/internal/paperdata"
	"repro/internal/predicate"
	"repro/internal/relation"
	"repro/internal/sample"
	"repro/internal/synth"
)

// widths are the predicate widths, in 64-bit words, that the kernel
// specialises: one word, two words, and the generic loop that serves three
// or more.
var widths = []int{1, 2, 3}

// widthConfigs are synth shapes whose pair universes span each width.
var widthConfigs = map[int]synth.Config{
	1: {AttrsR: 8, AttrsP: 8, Values: 3},   // Ω = 64
	2: {AttrsR: 9, AttrsP: 8, Values: 3},   // Ω = 72
	3: {AttrsR: 12, AttrsP: 11, Values: 3}, // Ω = 132
}

// widthInstance returns a synth engine with the given rows whose pair
// universe spans W words.
func widthInstance(tb testing.TB, W, rows int, seed int64) *inference.Engine {
	tb.Helper()
	cfg := widthConfigs[W]
	cfg.Rows = rows
	e := inference.New(synth.MustGenerate(cfg, seed))
	if got := bitset.WordsFor(e.U.Size()); got != W {
		tb.Fatalf("universe of %d pairs spans %d words; want %d", e.U.Size(), got, W)
	}
	return e
}

// randInstanceWords is randInstance with a pair universe of exactly W
// words: W = 1 draws randInstance's small schemas; wider universes draw
// 8–15 R attributes and as many P attributes as put n·m in
// ((W−1)·64, W·64].
func randInstanceWords(r *rand.Rand, W int) *relation.Instance {
	if W == 1 {
		return randInstance(r)
	}
	n := 8 + r.Intn(8)
	lo, hi := (W-1)*64/n+1, W*64/n
	return randInstanceSized(r, n, lo+r.Intn(hi-lo+1))
}

// entropiesMatchOracle compares Lookahead.Entropies with the reference for
// k = 1, 2 in both counting modes and describes the first mismatch.
func entropiesMatchOracle(e *inference.Engine) error {
	for _, k := range []int{1, 2} {
		for _, cc := range []bool{false, true} {
			l := Lookahead{K: k, CountClasses: cc}
			got := l.Entropies(e)
			want := refEntropies(l, e)
			if len(got) != len(want) {
				return fmt.Errorf("k=%d cc=%v: %d entries, oracle %d", k, cc, len(got), len(want))
			}
			for ci, g := range got {
				if w, ok := want[ci]; !ok || w != g {
					return fmt.Errorf("k=%d cc=%v class %d: kernel %v, oracle %v", k, cc, ci, g, w)
				}
			}
		}
	}
	return nil
}

// TestFastPathMatchesGeneralFigure5: the kernel computes exactly the
// reference's entropies on the paper's Figure 5 example, for k = 1, 2 and
// both counting modes. (The name predates the single kernel; the check is
// kernel against reference.)
func TestFastPathMatchesGeneralFigure5(t *testing.T) {
	if err := entropiesMatchOracle(inference.New(paperdata.Example21())); err != nil {
		t.Error(err)
	}
}

// TestArenaMatchesLegacyBigUniverse: at every word count, on universes of
// up to 132 pairs, the kernel computes exactly the reference's entropies,
// for k = 1, 2, both counting modes, with and without labeled classes.
func TestArenaMatchesLegacyBigUniverse(t *testing.T) {
	for _, W := range widths {
		t.Run(fmt.Sprintf("W=%d", W), func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				e := widthInstance(t, W, 5, seed)
				r := rand.New(rand.NewSource(seed))
				if labelHonestly(r, e, randPred(r, e.U), r.Intn(4)) < 0 {
					t.Fatal("labeling failed")
				}
				if err := entropiesMatchOracle(e); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// quickEntropiesMatch checks entropiesMatchOracle on random W-word
// instances after lo to lo+span−1 honest labels.
func quickEntropiesMatch(t *testing.T, W, lo, span, maxCount int) {
	t.Helper()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := inference.New(randInstanceWords(r, W))
		if labelHonestly(r, e, randPred(r, e.U), lo+r.Intn(span)) < 0 {
			return false
		}
		if err := entropiesMatchOracle(e); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Error(err)
	}
}

// TestQuickFastPathMatchesGeneral: on random one-word instances and
// partial samples of 0–2 labels, the kernel's entropies agree with the
// reference's for k = 1, 2 in both counting modes.
func TestQuickFastPathMatchesGeneral(t *testing.T) {
	quickEntropiesMatch(t, 1, 0, 3, 60)
}

// TestQuickEntropiesMatchWithLabels: the same agreement on random
// instances of every word count once 2–5 classes are labeled — the
// labeled-class bookkeeping is where the kernel and the reference differ
// structurally (certainty tests vs class-index lists).
func TestQuickEntropiesMatchWithLabels(t *testing.T) {
	for _, W := range widths {
		t.Run(fmt.Sprintf("W=%d", W), func(t *testing.T) {
			quickEntropiesMatch(t, W, 2, 4, 60/W)
		})
	}
}

// TestQuickArenaMatchesLegacySmallUniverse: on random one-word instances
// every root evaluation gentropyKRoot equals the reference's entropyK of
// the same candidate, for k = 1, 2 in both counting modes — the check one
// level below Entropies, without the beam or the reduction.
func TestQuickArenaMatchesLegacySmallUniverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randInstance(r)
		for _, k := range []int{1, 2} {
			for _, cc := range []bool{false, true} {
				e := inference.New(inst)
				if labelHonestly(r, e, randPred(r, e.U), r.Intn(4)) < 0 {
					return false
				}
				lk, ref := newLook(e, cc), newRefLook(e, cc)
				if len(lk.baseInf) == 0 {
					continue
				}
				sc := lk.newScratch(k)
				base := ref.baseState()
				for pos, ci := range lk.baseInf {
					if lk.gentropyKRoot(pos, k, sc) != ref.entropyK(ci, base, k) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickArenaDeltaMatchesOracle: along random mirrored extension chains,
// the kernel's delta and informative sweep agree exactly with the
// reference's, at every word count and in both counting modes — the units
// underneath every entropy computation, including the chain's labeled
// classes, which the kernel finds through certainty alone.
func TestQuickArenaDeltaMatchesOracle(t *testing.T) {
	for _, W := range widths {
		t.Run(fmt.Sprintf("W=%d", W), func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				inst := randInstanceWords(r, W)
				for _, cc := range []bool{false, true} {
					e := inference.New(inst)
					if labelHonestly(r, e, randPred(r, e.U), r.Intn(5)) < 0 {
						return false
					}
					lk, ref := newLook(e, cc), newRefLook(e, cc)
					if len(lk.baseInf) == 0 {
						continue
					}
					const depth = 3
					sc := lk.newScratch(depth)
					gs := lk.groot(sc)
					rs := ref.baseState()
					chain := r.Perm(len(lk.baseInf))
					if len(chain) > depth {
						chain = chain[:depth]
					}
					for _, pos := range chain {
						ci := lk.baseInf[pos]
						theta := e.Classes()[ci].Theta
						if r.Intn(2) == 0 {
							gs, rs = lk.gwithPositive(gs, pos, sc), rs.withPositive(theta, ci)
						} else {
							gs, rs = lk.gwithNegative(gs, pos), rs.withNegative(theta, ci)
						}
						if lk.gdelta(&gs, sc) != ref.delta(rs) {
							return false
						}
						got := lk.ginformativeInto(&gs, nil, sc)
						want := ref.informativeUnder(rs)
						if len(got) != len(want) {
							return false
						}
						for i, p := range got {
							if lk.baseInf[p] != want[i] {
								return false
							}
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestArenaSequenceMatchesLegacy: whole L1S/L2S interactions ask
// bit-identical question sequences whether the entropies come from the
// kernel (at any worker count) or the reference, on a Figure 7 instance
// (Ω = 9) and on two- and three-word universes.
func TestArenaSequenceMatchesLegacy(t *testing.T) {
	fixtures := []struct {
		name string
		new  func() *inference.Engine
	}{
		{"fig7(3,3,100,100)", func() *inference.Engine {
			return inference.New(synth.MustGenerate(synth.PaperConfigs()[0], 5))
		}},
		{"W=2", func() *inference.Engine { return widthInstance(t, 2, 5, 1) }},
		{"W=3", func() *inference.Engine { return widthInstance(t, 3, 5, 1) }},
	}
	for _, fx := range fixtures {
		for _, k := range []int{1, 2} {
			for _, workers := range []int{1, 4} {
				e, ref := fx.new(), fx.new()
				goal := predicate.FromPairs(e.U, [2]int{0, 0})
				orc := oracle.NewHonest(e.Inst, e.U, goal)
				arena := Lookahead{K: k, Workers: workers}
				legacy := legacyLookahead{K: k}
				for step := 0; !e.Done(); step++ {
					got := arena.Next(e)
					want := legacy.Next(ref)
					if got != want {
						t.Fatalf("%s K=%d workers=%d step %d: kernel picked %d, oracle picked %d", fx.name, k, workers, step, got, want)
					}
					l := orc.LabelFor(e.Classes()[got].RI, e.Classes()[got].PI)
					if err := e.Label(got, l); err != nil {
						t.Fatal(err)
					}
					if err := ref.Label(want, l); err != nil {
						t.Fatal(err)
					}
				}
				if !ref.Done() {
					t.Fatalf("%s K=%d workers=%d: oracle engine not done when kernel engine is", fx.name, k, workers)
				}
			}
		}
	}
}

// allocFreeCandidateEval checks that steady-state candidate evaluation on
// a W-word universe allocates nothing (the allocation-regression guard for
// the Θ(|I|³) inner loop).
func allocFreeCandidateEval(t *testing.T, W int) {
	t.Helper()
	e := widthInstance(t, W, 5, 1)
	r := rand.New(rand.NewSource(1))
	if labelHonestly(r, e, randPred(r, e.U), 2) < 0 {
		t.Fatal("labeling failed")
	}
	lk := newLook(e, false)
	if len(lk.baseInf) == 0 {
		t.Fatal("no informative classes")
	}
	const k = 2
	sc := lk.newScratch(k)
	allocs := testing.AllocsPerRun(20, func() {
		for pos := range lk.baseInf {
			lk.gentropyKRoot(pos, k, sc)
		}
	})
	if allocs != 0 {
		t.Errorf("candidate evaluation allocates %.1f per run; want 0", allocs)
	}
}

// TestAllocFreeCandidateEvalFast: the zero-allocation guard on a one-word
// universe (Ω = 64), served by the fused W = 1 certainty and delta.
func TestAllocFreeCandidateEvalFast(t *testing.T) {
	allocFreeCandidateEval(t, 1)
}

// TestAllocFreeCandidateEvalGeneral: the same guard on two- and three-word
// universes, served by the fused W = 2 code and the generic loop.
func TestAllocFreeCandidateEvalGeneral(t *testing.T) {
	for _, W := range widths[1:] {
		t.Run(fmt.Sprintf("W=%d", W), func(t *testing.T) {
			allocFreeCandidateEval(t, W)
		})
	}
}

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool

// TestArenaAllocsPerDecision bounds the allocations of one whole serial
// L1S/L2S decision (snapshot, scratch, beam and reduction) after two
// honest labels, at the counts the former three-path dispatch needed.
func TestArenaAllocsPerDecision(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratches at random under the race detector")
	}
	cases := []struct {
		cfg synth.Config
		max float64
	}{
		{synth.Config{AttrsR: 3, AttrsP: 3, Rows: 100, Values: 100}, 16}, // W = 1
		{synth.Config{AttrsR: 9, AttrsP: 8, Rows: 6, Values: 3}, 19},     // W = 2
		{synth.Config{AttrsR: 12, AttrsP: 11, Rows: 5, Values: 3}, 19},   // W = 3
	}
	for _, c := range cases {
		for _, k := range []int{1, 2} {
			e := inference.New(synth.MustGenerate(c.cfg, 5))
			r := rand.New(rand.NewSource(1))
			if labelHonestly(r, e, randPred(r, e.U), 2) < 2 {
				t.Fatal("labeling failed")
			}
			l := Lookahead{K: k, Workers: 1}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := l.NextCtx(context.Background(), e); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > c.max {
				t.Errorf("%v K=%d: %.1f allocations per decision; want ≤ %.0f", c.cfg, k, allocs, c.max)
			}
		}
	}
}

// labelHonestly labels up to n random informative classes according to the
// goal and reports how many were labeled.
func labelHonestly(r *rand.Rand, e *inference.Engine, goal predicate.Pred, n int) int {
	labeled := 0
	for q := 0; q < n; q++ {
		inf := e.InformativeClasses()
		if len(inf) == 0 {
			break
		}
		ci := inf[r.Intn(len(inf))]
		c := e.Classes()[ci]
		l := sample.Negative
		if goal.Selects(e.U, e.Inst.R.Tuples[c.RI], e.Inst.P.Tuples[c.PI]) {
			l = sample.Positive
		}
		if err := e.Label(ci, l); err != nil {
			return -1
		}
		labeled++
	}
	return labeled
}
