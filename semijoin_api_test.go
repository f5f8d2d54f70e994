package joininference

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

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

// sameSemijoin reports whether two predicates keep the same rows of R.
func sameSemijoin(inst *Instance, a, b Pred) bool {
	x, y := SemijoinEval(inst, a), SemijoinEval(inst, b)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
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
	if !sameSemijoin(inst, theta, goal) {
		t.Fatalf("semijoin differs: %v vs %v", SemijoinEval(inst, theta), SemijoinEval(inst, goal))
	}
}

// TestSemijoinSessionExample21: for each goal of Example 2.1, among them
// θ1 = {(A1,B1),(A2,B3)} which keeps t2 and t4, an honest semijoin session
// ends determined within |R| questions, keeping exactly the goal's rows.
func TestSemijoinSessionExample21(t *testing.T) {
	inst := paperdata.Example21()
	u := NewSession(inst).Universe()
	for _, pairs := range [][][2]string{
		{{"A1", "B2"}},
		{{"A1", "B1"}, {"A2", "B3"}},
		{{"A2", "B2"}},
	} {
		goal, err := PredFromNames(u, pairs...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), NewSemijoinSession(inst), HonestOracle(goal))
		if err != nil {
			t.Fatalf("%v: %v", pairs, err)
		}
		if !res.Determined {
			t.Errorf("%v: run should determine every row", pairs)
		}
		if res.Questions < 1 || res.Questions > inst.R.Len() {
			t.Errorf("%v: asked = %d", pairs, res.Questions)
		}
		if !sameSemijoin(inst, res.Inferred, goal) {
			t.Errorf("%v: semijoin differs: %v vs %v", pairs, SemijoinEval(inst, res.Inferred), SemijoinEval(inst, goal))
		}
	}
	theta1, err := PredFromNames(u, [2]string{"A1", "B1"}, [2]string{"A2", "B3"})
	if err != nil {
		t.Fatal(err)
	}
	if got := SemijoinEval(inst, theta1); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("θ1 keeps rows %v, want [1 3] (t2, t4)", got)
	}
}

// TestSemijoinSessionBudget: a budget of one stops an undetermined
// semijoin run after one answer, leaving a predicate consistent with it.
func TestSemijoinSessionBudget(t *testing.T) {
	inst := paperdata.Example21()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"A1", "B1"})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSemijoinSession(inst, WithBudget(1))
	res, err := Run(context.Background(), s, HonestOracle(goal))
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if res.Questions != 1 || res.Determined {
		t.Fatalf("questions %d, determined %v; want 1 undetermined", res.Questions, res.Determined)
	}
	e := s.Transcript()[0]
	kept := false
	for _, ri := range SemijoinEval(inst, res.Inferred) {
		kept = kept || ri == e.RIndex
	}
	if kept != e.Positive {
		t.Errorf("inferred predicate contradicts the one answer %+v", e)
	}
}

// randSemijoinInstance draws a tiny instance (1–2 by 1–3 attributes, 2–5
// rows of R, 1–4 rows of P, values from a pool of 1–3).
func randSemijoinInstance(r *rand.Rand) *Instance {
	rel := func(name, prefix string, arity, rows int, vals int) *Relation {
		attrs := make([]string, arity)
		for i := range attrs {
			attrs[i] = prefix + strconv.Itoa(i+1)
		}
		sch, err := NewSchema(name, attrs...)
		if err != nil {
			panic(err)
		}
		out := NewRelation(sch)
		for i := 0; i < rows; i++ {
			tup := make([]string, arity)
			for k := range tup {
				tup[k] = strconv.Itoa(r.Intn(vals))
			}
			out.MustAddTuple(tup...)
		}
		return out
	}
	n, m, vals := 1+r.Intn(2), 1+r.Intn(3), 1+r.Intn(3)
	inst, err := NewInstance(rel("R", "A", n, 2+r.Intn(4), vals), rel("P", "B", m, 1+r.Intn(4), vals))
	if err != nil {
		panic(err)
	}
	return inst
}

// TestQuickInteractiveMatchesGoal: on random instances and goals an honest
// semijoin session always ends determined, within |R| questions, keeping
// exactly the goal's rows.
func TestQuickInteractiveMatchesGoal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randSemijoinInstance(r)
		u := NewSession(inst).Universe()
		var goal Pred
		for id := 0; id < u.Size(); id++ {
			if r.Intn(3) == 0 {
				goal.Set.Add(id)
			}
		}
		res, err := Run(context.Background(), NewSemijoinSession(inst), HonestOracle(goal))
		return err == nil && res.Determined && res.Questions <= inst.R.Len() &&
			sameSemijoin(inst, res.Inferred, goal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
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
