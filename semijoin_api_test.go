package joininference

import (
	"context"
	"testing"

	"repro/internal/paperdata"
)

func TestSemijoinConsistentPublic(t *testing.T) {
	inst := paperdata.Example21()
	theta, ok, err := SemijoinConsistent(inst, SemijoinSample{Keep: []int{0, 1}, Drop: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Section 6 sample should be consistent")
	}
	sel := map[int]bool{}
	for _, ri := range SemijoinEval(inst, theta) {
		sel[ri] = true
	}
	if !sel[0] || !sel[1] || sel[2] {
		t.Errorf("predicate selects %v", sel)
	}
	if _, _, err := SemijoinConsistent(inst, SemijoinSample{Keep: []int{99}}); err == nil {
		t.Error("invalid sample accepted")
	}
}

func TestInferSemijoinPublic(t *testing.T) {
	inst := paperdata.Example21()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"A1", "B2"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), NewSemijoinSession(inst), HonestOracle(goal))
	if err != nil {
		t.Fatal(err)
	}
	theta, asked := res.Inferred, res.Questions
	if asked < 1 || asked > inst.R.Len() {
		t.Errorf("asked = %d", asked)
	}
	want := SemijoinEval(inst, goal)
	got := SemijoinEval(inst, theta)
	if len(want) != len(got) {
		t.Fatalf("semijoin differs: %v vs %v", got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("semijoin differs: %v vs %v", got, want)
		}
	}
}

func TestInferSemijoinCustomOracle(t *testing.T) {
	inst := paperdata.Example21()
	// User keeps rows whose A2 value is "2" (t2 and t3).
	keep := map[int]bool{1: true, 2: true}
	res, err := Run(context.Background(), NewSemijoinSession(inst), FuncOracle(func(q Question) Label {
		return Label(keep[q.RIndex])
	}))
	if err != nil {
		// The user's mental filter may be inexpressible as a semijoin on
		// this instance — the error path is legitimate API behaviour.
		t.Logf("inconsistent user filter detected after %d questions: %v", res.Questions, err)
		return
	}
	sel := map[int]bool{}
	for _, ri := range SemijoinEval(inst, res.Inferred) {
		sel[ri] = true
	}
	for ri, want := range keep {
		if want && !sel[ri] {
			t.Errorf("row %d should be kept", ri)
		}
	}
}
