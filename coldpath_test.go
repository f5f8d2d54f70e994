package joininference

import (
	"context"
	"testing"

	"repro/internal/predicate"
	"repro/internal/semijoin"
	"repro/internal/synth"
)

// The cold-path differential suite: every strategy must ask a
// bit-identical question sequence at every parallelism — the lookahead
// kernel, the incremental engine, and the semijoin solver are pure
// optimizations. It runs on a one-word universe (a Figure 7 instance,
// Ω = 9) and a two-word one (Ω = 9·8 = 72), so both fused certainty
// widths of the lookahead kernel are covered.

// coldPathCase is one instance of the suite with its goal predicate.
type coldPathCase struct {
	name string
	inst *Instance
	goal Pred
}

// coldPathInstance returns the 72-pair instance shared by the suite.
func coldPathInstance(tb testing.TB) *Instance {
	tb.Helper()
	inst := synth.MustGenerate(synth.Config{AttrsR: 9, AttrsP: 8, Rows: 5, Values: 3}, 1)
	if predicate.NewUniverse(inst).Size() <= 64 {
		tb.Fatal("universe fits a word; want > 64")
	}
	return inst
}

// coldPathGoal is a two-pair goal predicate over the 72-pair universe.
func coldPathGoal(inst *Instance) Pred {
	u := predicate.NewUniverse(inst)
	return predicate.FromPairs(u, [2]int{0, 0}, [2]int{3, 2})
}

// coldPathCases returns the suite's instances: the Figure 7 configuration
// (3, 3, 100, 100) with goal A1 = B1, and the 72-pair instance.
func coldPathCases(tb testing.TB) []coldPathCase {
	tb.Helper()
	fig7 := synth.MustGenerate(synth.PaperConfigs()[0], 1)
	wide := coldPathInstance(tb)
	return []coldPathCase{
		{"fig7(3,3,100,100)", fig7, predicate.FromPairs(predicate.NewUniverse(fig7), [2]int{0, 0})},
		{"synth(9,8,5,3)", wide, coldPathGoal(wide)},
	}
}

// transcriptSeq runs a session to completion and returns the ordered
// (RIndex, PIndex, label) sequence it asked.
func transcriptSeq(t *testing.T, s *Session, goal Pred) []TranscriptEntry {
	t.Helper()
	if _, err := Run(context.Background(), s, HonestOracle(goal)); err != nil {
		t.Fatal(err)
	}
	return s.Transcript()
}

func sameEntries(a, b []TranscriptEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestColdPathJoinSequencesBitIdentical: for all five strategies on each
// instance, join sessions ask the same questions at Workers 1 and 4 and
// infer an instance-equivalent predicate. (Kernel-vs-reference sequence
// equality for the lookaheads is asserted in internal/strategy; the
// incremental engine is differentially tested in internal/inference.)
func TestColdPathJoinSequencesBitIdentical(t *testing.T) {
	for _, c := range coldPathCases(t) {
		t.Run(c.name, func(t *testing.T) { checkJoinSequences(t, c.inst, c.goal) })
	}
}

func checkJoinSequences(t *testing.T, inst *Instance, goal Pred) {
	u := predicate.NewUniverse(inst)
	cs := PrecomputeClasses(inst)
	want := predicate.Join(inst, u, goal)
	for _, id := range KnownStrategies() {
		var base []TranscriptEntry
		for _, workers := range []int{1, 4} {
			s := NewSession(inst, WithStrategy(id), WithSeed(7),
				WithParallelism(workers), WithPrecomputedClasses(cs))
			seq := transcriptSeq(t, s, goal)
			if len(seq) == 0 {
				t.Fatalf("%s/w%d: empty question sequence", id, workers)
			}
			if workers == 1 {
				base = seq
			} else if !sameEntries(base, seq) {
				t.Fatalf("%s: question sequence diverged between Workers 1 and %d:\n  w1: %v\n  w%d: %v",
					id, workers, base, workers, seq)
			}
			got := predicate.Join(inst, u, s.Inferred())
			if len(got) != len(want) {
				t.Fatalf("%s/w%d: inferred predicate not instance-equivalent (%d vs %d join tuples)",
					id, workers, len(got), len(want))
			}
		}
	}
}

// TestColdPathSemijoinSequencesBitIdentical: semijoin sessions on the same
// instances ask the scan-order sequence the pre-solver implementation
// produced — computed here as the reference with one fresh semijoin.Solver
// per decision, so no witness cache or scratch carries over — for every
// strategy id (ignored by semijoin sessions) and parallelism.
func TestColdPathSemijoinSequencesBitIdentical(t *testing.T) {
	for _, c := range coldPathCases(t) {
		t.Run(c.name, func(t *testing.T) { checkSemijoinSequences(t, c.inst, c.goal) })
	}
}

func checkSemijoinSequences(t *testing.T, inst *Instance, goal Pred) {

	// Reference: the seed scan loop over independent CONS⋉ decisions.
	keeps := func(ri int) bool {
		for _, tP := range inst.P.Tuples {
			if goal.Selects(predicate.NewUniverse(inst), inst.R.Tuples[ri], tP) {
				return true
			}
		}
		return false
	}
	var ref []TranscriptEntry
	var sample semijoin.Sample
	labeled := make([]bool, inst.R.Len())
	for {
		next := -1
		for ri := 0; ri < inst.R.Len() && next < 0; ri++ {
			if labeled[ri] {
				continue
			}
			ok, err := semijoin.NewSolver(inst).Informative(sample, ri)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				next = ri
			}
		}
		if next < 0 {
			break
		}
		labeled[next] = true
		pos := keeps(next)
		if pos {
			sample.Pos = append(sample.Pos, next)
		} else {
			sample.Neg = append(sample.Neg, next)
		}
		ref = append(ref, TranscriptEntry{RIndex: next, PIndex: -1, Positive: pos})
	}
	if len(ref) == 0 {
		t.Fatal("reference semijoin sequence is empty")
	}

	for _, id := range KnownStrategies() {
		for _, workers := range []int{1, 4} {
			s := NewSemijoinSession(inst, WithStrategy(id), WithSeed(7), WithParallelism(workers))
			seq := transcriptSeq(t, s, goal)
			if !sameEntries(ref, seq) {
				t.Fatalf("%s/w%d: semijoin sequence diverged from seed reference:\n  ref: %v\n  got: %v",
					id, workers, ref, seq)
			}
		}
	}
}
