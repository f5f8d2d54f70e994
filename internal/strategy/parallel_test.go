package strategy

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/inference"
	"repro/internal/oracle"
	"repro/internal/paperdata"
	"repro/internal/predicate"
	"repro/internal/relation"
	"repro/internal/synth"
)

// workersDeterministic checks, on trials random W-word instances, that
// NextCtx picks the same class at every Workers value and that whole runs
// ask the same number of questions — parallel evaluation must be
// bit-identical to serial.
func workersDeterministic(t *testing.T, W, trials int) {
	t.Helper()
	ctx := context.Background()
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < trials; trial++ {
		inst := randInstanceWords(r, W)
		goal := randPred(r, inference.New(inst).U)
		for _, k := range []int{1, 2} {
			e := inference.New(inst)
			serial, err := Lookahead{K: k}.NextCtx(ctx, e)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 4, 16, -1} {
				got, err := Lookahead{K: k, Workers: w}.NextCtx(ctx, e)
				if err != nil {
					t.Fatal(err)
				}
				if got != serial {
					t.Fatalf("trial %d K=%d workers=%d: picked %d, serial picked %d", trial, k, w, got, serial)
				}
			}
			// Whole-run agreement: identical questions means identical
			// interaction counts and inferred predicates.
			base, err := inference.Run(inference.New(inst), Lookahead{K: k},
				oracle.NewHonest(inst, inference.New(inst).U, goal), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{4, 16} {
				res, err := inference.Run(inference.New(inst), Lookahead{K: k, Workers: w},
					oracle.NewHonest(inst, inference.New(inst).U, goal), 0)
				if err != nil {
					t.Fatal(err)
				}
				if res.Interactions != base.Interactions || !res.Predicate.Equal(base.Predicate) {
					t.Fatalf("trial %d K=%d workers=%d: run diverged (%d vs %d interactions)",
						trial, k, w, res.Interactions, base.Interactions)
				}
			}
		}
	}
}

// TestWorkersDeterministicFastPath: worker-count determinism on 25 random
// one-word instances.
func TestWorkersDeterministicFastPath(t *testing.T) {
	workersDeterministic(t, 1, 25)
}

// TestWorkersDeterministicGeneralPath: the same determinism on random two-
// and three-word instances.
func TestWorkersDeterministicGeneralPath(t *testing.T) {
	for _, W := range widths[1:] {
		t.Run(fmt.Sprintf("W=%d", W), func(t *testing.T) {
			workersDeterministic(t, W, 5)
		})
	}
}

// TestGeneralPathBeamLimitsEvaluations is the regression test for the
// silently-ignored beam: on a >64-pair universe with 64 informative
// classes, MaxCandidates must cap the number of entropy^K evaluations.
// The beam was once applied only to one-word universes, so exactly this
// instance shape ran exact L2S regardless of the knob.
func TestGeneralPathBeamLimitsEvaluations(t *testing.T) {
	e := widthInstance(t, 2, 8, 1)
	inf := len(e.InformativeClasses())
	if inf <= 8 {
		t.Fatalf("want > 8 informative classes, got %d", inf)
	}
	var evals atomic.Int64
	beamed := Lookahead{K: 2, MaxCandidates: 8, evalCount: &evals}
	ci, err := beamed.NextCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if got := evals.Load(); got != 8 {
		t.Errorf("beam 8 evaluated %d candidates; want exactly 8", got)
	}
	if ci < 0 || !e.Informative(ci) {
		t.Errorf("beamed pick %d is not an informative class", ci)
	}
}

// TestGeneralPathNoBeamEvaluatesAll: without a beam a >64-pair universe
// still has every informative candidate evaluated (the counter counts what
// the beam would have cut).
func TestGeneralPathNoBeamEvaluatesAll(t *testing.T) {
	e := widthInstance(t, 2, 5, 1)
	inf := len(e.InformativeClasses())
	var evals atomic.Int64
	exact := Lookahead{K: 2, evalCount: &evals}
	if _, err := exact.NextCtx(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	if got := evals.Load(); got != int64(inf) {
		t.Errorf("exact L2S evaluated %d candidates; want all %d", got, inf)
	}
}

// TestBeamAgreesAcrossPaths: the kernel's beam (one-step entropy scoring
// plus stable ordering) picks exactly the candidates a beam scored by the
// reference implementation picks.
func TestBeamAgreesAcrossPaths(t *testing.T) {
	e := inference.New(paperdata.Example21())
	lk := newLook(e, false)
	ref := refEntropies(Lookahead{K: 1}, e)
	for _, beam := range []int{1, 2, 4, 8} {
		got := lk.beamPositions(2, beam, lk.newScratch(2))
		want := make([]int, len(lk.baseInf))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool {
			ea, eb := ref[lk.baseInf[want[a]]], ref[lk.baseInf[want[b]]]
			return ea.Min > eb.Min || (ea.Min == eb.Min && ea.Max > eb.Max)
		})
		want = want[:min(beam, len(want))]
		sort.Ints(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("beam %d: kernel picked %v, reference %v", beam, got, want)
		}
	}
}

// TestParallelNextCtxCancellation: a cancelled context aborts a parallel
// L2S decision with the context's error.
func TestParallelNextCtxCancellation(t *testing.T) {
	inst := synth.MustGenerate(synth.Config{AttrsR: 3, AttrsP: 3, Rows: 50, Values: 100}, 5)
	e := inference.New(inst)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 8} {
		ci, err := Lookahead{K: 2, Workers: w}.NextCtx(ctx, e)
		if err != context.Canceled {
			t.Errorf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if ci != -1 {
			t.Errorf("workers=%d: ci = %d, want -1", w, ci)
		}
	}
}

// TestDeepLookaheadRejected: depths up to maxDepth run, deeper ones are
// rejected — NextCtx with an error, Next with -1 (which inference.Run
// reports as an invalid class), Entropies with nil. A three-class instance
// keeps the exponential recursion trivially small.
func TestDeepLookaheadRejected(t *testing.T) {
	R := relation.NewRelation(relation.MustSchema("R", "A"))
	P := relation.NewRelation(relation.MustSchema("P", "B"))
	R.Tuples = append(R.Tuples, relation.Tuple{"1"}, relation.Tuple{"2"})
	P.Tuples = append(P.Tuples, relation.Tuple{"1"}, relation.Tuple{"3"})
	inst := relation.MustInstance(R, P)
	e := inference.New(inst)
	ci, err := Lookahead{K: maxDepth, Workers: 4}.NextCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if ci < 0 || !e.Informative(ci) {
		t.Fatalf("depth-%d lookahead picked %d; want an informative class", maxDepth, ci)
	}

	deep := Lookahead{K: maxDepth + 1, Workers: 4}
	if ci, err := deep.NextCtx(context.Background(), e); err == nil || ci != -1 {
		t.Errorf("NextCtx = (%d, %v); want (-1, error)", ci, err)
	}
	if ci := deep.Next(e); ci != -1 {
		t.Errorf("Next = %d; want -1", ci)
	}
	if ent := deep.Entropies(e); ent != nil {
		t.Errorf("Entropies = %v; want nil", ent)
	}
	honest := oracle.NewHonest(inst, e.U, predicate.FromPairs(e.U, [2]int{0, 0}))
	if _, err := inference.Run(e, deep, honest, 0); err == nil {
		t.Error("inference.Run with a rejected depth succeeded; want an invalid-class error")
	}
}
