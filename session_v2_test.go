package joininference

import (
	"context"
	"errors"
	"testing"

	"repro/internal/inference"
	"repro/internal/paperdata"
)

// honestRun drives a fresh session with the given options to completion
// against an honest oracle.
func honestRun(t *testing.T, inst *Instance, goal Pred, opts ...Option) (RunResult, *Session) {
	t.Helper()
	s := NewSession(inst, opts...)
	res, err := Run(context.Background(), s, HonestOracle(goal))
	if err != nil {
		t.Fatal(err)
	}
	return res, s
}

func TestRunAllStrategies(t *testing.T) {
	inst := paperdata.FlightHotel()
	classes := PrecomputeClasses(inst)
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"}, [2]string{"Airline", "Discount"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []StrategyID{StrategyBU, StrategyTD, StrategyL1S, StrategyL2S, StrategyRND} {
		res, _ := honestRun(t, inst, goal, WithStrategy(id), WithPrecomputedClasses(classes))
		if !res.Determined {
			t.Errorf("%s: run not determined", id)
		}
		if res.Questions < 1 || res.Questions > 12 {
			t.Errorf("%s asked %d questions", id, res.Questions)
		}
		if len(Join(inst, res.Inferred)) != len(Join(inst, goal)) {
			t.Errorf("%s inferred %v, not instance-equivalent to goal", id, res.Inferred.Format(u))
		}
	}
}

func TestSeededRNDDeterminism(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) []TranscriptEntry {
		_, s := honestRun(t, inst, goal, WithStrategy(StrategyRND), WithSeed(seed))
		return s.Transcript()
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different question %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestBudgetExhausted(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(inst, WithBudget(1))
	res, err := Run(context.Background(), s, HonestOracle(goal))
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Run error = %v, want ErrBudgetExhausted", err)
	}
	if res.Questions != 1 {
		t.Errorf("questions = %d, want 1", res.Questions)
	}
	if res.Determined {
		t.Error("budget-stopped run reported determined")
	}
	// The session stays usable read-only and keeps refusing questions.
	if _, err := s.NextQuestions(context.Background(), 1); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("NextQuestions error = %v, want ErrBudgetExhausted", err)
	}
	if err := s.Answer(Question{}, Positive); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("Answer error = %v, want ErrBudgetExhausted", err)
	}
	// A budget generous enough is never hit.
	res2, _ := honestRun(t, inst, goal, WithBudget(100))
	if !res2.Determined {
		t.Error("run with slack budget not determined")
	}
}

// countdownCtx reports cancellation after a fixed number of Err calls —
// deterministic mid-computation cancellation without goroutines.
type countdownCtx struct {
	context.Context
	calls, after int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

func TestContextCancellation(t *testing.T) {
	inst := paperdata.FlightHotel()

	// Already-cancelled context: rejected before any work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSession(inst, WithStrategy(StrategyL2S))
	if _, err := s.NextQuestions(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx error = %v, want context.Canceled", err)
	}

	// Cancellation mid-L2S: the countdown survives the entry check and
	// fires inside the lookahead's per-candidate loop.
	s2 := NewSession(inst, WithStrategy(StrategyL2S))
	cc := &countdownCtx{Context: context.Background(), after: 2}
	if _, err := s2.NextQuestions(cc, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("mid-L2S error = %v, want context.Canceled", err)
	}
	if cc.calls <= cc.after {
		t.Errorf("cancellation was never polled mid-computation (calls = %d)", cc.calls)
	}
	// The session was not corrupted: a live context works.
	if _, err := s2.NextQuestions(context.Background(), 1); err != nil {
		t.Errorf("session unusable after cancellation: %v", err)
	}
}

func TestNextQuestionsPairwiseInformative(t *testing.T) {
	inst := paperdata.FlightHotel()
	classes := PrecomputeClasses(inst)
	s := NewSession(inst, WithPrecomputedClasses(classes))
	qs, err := s.NextQuestions(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) < 2 {
		t.Fatalf("only %d questions in batch; need ≥ 2 to test pairwise informativeness", len(qs))
	}
	// Every question must stay informative whichever way any other one is
	// answered. Replay each single answer on a fresh session sharing the
	// class set (so class indexes agree) and re-check the rest.
	for i, qi := range qs {
		for _, l := range []Label{Positive, Negative} {
			fresh := NewSession(inst, WithPrecomputedClasses(classes))
			if err := fresh.Answer(qi, l); err != nil {
				t.Fatalf("answering question %d with %v: %v", i, l, err)
			}
			for j, qj := range qs {
				if i == j {
					continue
				}
				if !fresh.IsInformative(qj) {
					t.Errorf("question %d became uninformative after question %d answered %v",
						j, i, l)
				}
			}
		}
	}
}

func TestAnswerBatchSkipsDecided(t *testing.T) {
	inst := paperdata.FlightHotel()
	s := NewSession(inst)
	u := s.Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	oracle := HonestOracle(goal)
	ctx := context.Background()
	qs, err := s.NextQuestions(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 {
		t.Fatal("no questions")
	}
	labels := make([]Label, len(qs))
	for i, q := range qs {
		labels[i], _ = oracle.Label(ctx, q)
	}
	// Answer the first by hand; AnswerBatch must skip it (and anything the
	// remaining answers decide) instead of erroring.
	if err := s.Answer(qs[0], labels[0]); err != nil {
		t.Fatal(err)
	}
	applied, err := s.AnswerBatch(qs, labels)
	if err != nil {
		t.Fatal(err)
	}
	if applied != len(qs)-1 {
		t.Errorf("applied = %d, want %d (first answer pre-recorded)", applied, len(qs)-1)
	}
	if _, err := s.AnswerBatch(qs[:1], labels); err == nil {
		t.Error("mismatched question/label lengths accepted")
	}
}

func TestCrowdOracleAggregation(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	// Perfect workers: majority aggregation is exact, costs workers·questions.
	crowd, err := CrowdOracle(HonestOracle(goal), 3, 0, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(inst)
	res, err := Run(context.Background(), s, crowd)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Determined || len(Join(inst, res.Inferred)) != len(Join(inst, goal)) {
		t.Errorf("perfect crowd failed to recover the goal: %v", res.Inferred.Format(u))
	}
	if crowd.Questions() != res.Questions {
		t.Errorf("crowd answered %d questions, session recorded %d", crowd.Questions(), res.Questions)
	}
	if crowd.Microtasks() != 3*crowd.Questions() {
		t.Errorf("microtasks = %d, want %d (3 per question, no ties at error 0)",
			crowd.Microtasks(), 3*crowd.Questions())
	}
	if crowd.WrongAnswers() != 0 {
		t.Errorf("wrong answers = %d with perfect workers", crowd.WrongAnswers())
	}
	if got, want := crowd.TotalCost(), float64(crowd.Microtasks())*0.05; got != want {
		t.Errorf("total cost = %v, want %v", got, want)
	}
	// Redundancy shrinks the aggregated error rate monotonically.
	if !(CrowdErrorRate(7, 0.2) < CrowdErrorRate(3, 0.2) && CrowdErrorRate(3, 0.2) < CrowdErrorRate(1, 0.2)) {
		t.Errorf("majority error not decreasing: %v %v %v",
			CrowdErrorRate(1, 0.2), CrowdErrorRate(3, 0.2), CrowdErrorRate(7, 0.2))
	}
	if _, err := CrowdOracle(HonestOracle(goal), 3, 1.5, 0, 1); err == nil {
		t.Error("invalid error rate accepted")
	}
}

type biggestClassFirst struct{}

func (biggestClassFirst) Name() string { return "BIG" }
func (biggestClassFirst) Next(v StrategyView) int {
	best, bestCount := -1, int64(-1)
	for _, ci := range v.InformativeClasses() {
		if c := v.ClassCount(ci); c > bestCount {
			best, bestCount = ci, c
		}
	}
	return best
}

func TestWithCustomStrategy(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := honestRun(t, inst, goal, WithCustomStrategy(biggestClassFirst{}))
	if !res.Determined {
		t.Fatal("custom strategy run not determined")
	}
	if len(Join(inst, res.Inferred)) != len(Join(inst, goal)) {
		t.Errorf("custom strategy inferred %v", res.Inferred.Format(u))
	}
}

func TestUnknownStrategySentinel(t *testing.T) {
	s := NewSession(paperdata.FlightHotel(), WithStrategy(StrategyID("NOPE")))
	if _, err := s.NextQuestions(context.Background(), 1); !errors.Is(err, ErrUnknownStrategy) {
		t.Errorf("error = %v, want ErrUnknownStrategy", err)
	}
	if _, err := Run(context.Background(), s, HonestOracle(Pred{})); !errors.Is(err, ErrUnknownStrategy) {
		t.Errorf("Run error = %v, want ErrUnknownStrategy", err)
	}
}

func TestErrorSentinelsWrapInternal(t *testing.T) {
	if !errors.Is(ErrInconsistent, inference.ErrInconsistent) {
		t.Error("public ErrInconsistent does not wrap the internal sentinel")
	}
}

func TestSemijoinSessionRun(t *testing.T) {
	inst := paperdata.Example21()
	s := NewSemijoinSession(inst)
	u := s.Universe()
	goal, err := PredFromNames(u, [2]string{"A1", "B2"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), s, HonestOracle(goal))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Determined {
		t.Error("semijoin run not determined")
	}
	if res.Questions < 1 || res.Questions > inst.R.Len() {
		t.Errorf("questions = %d", res.Questions)
	}
	want := SemijoinEval(inst, goal)
	got := SemijoinEval(inst, res.Inferred)
	if len(want) != len(got) {
		t.Fatalf("semijoin differs: %v vs %v", got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("semijoin differs: %v vs %v", got, want)
		}
	}
	if !s.Done() {
		t.Error("session not done after determined run")
	}
	if s.Classes() != 0 {
		t.Errorf("semijoin session reports %d classes", s.Classes())
	}
	// A budget below the full interaction count surfaces the sentinel.
	if res.Questions > 1 {
		s2 := NewSemijoinSession(inst, WithBudget(1))
		res2, err := Run(context.Background(), s2, HonestOracle(goal))
		if !errors.Is(err, ErrBudgetExhausted) {
			t.Errorf("budgeted semijoin error = %v, want ErrBudgetExhausted", err)
		}
		if res2.Questions != 1 {
			t.Errorf("budgeted semijoin asked %d", res2.Questions)
		}
	}
}

func TestSemijoinBatchAndUndo(t *testing.T) {
	inst := paperdata.Example21()
	s := NewSemijoinSession(inst)
	qs, err := s.NextQuestions(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 {
		t.Fatal("no semijoin questions")
	}
	for _, q := range qs {
		if !q.Semijoin() || q.PIndex != -1 || q.PTuple != nil {
			t.Errorf("semijoin question malformed: %+v", q)
		}
	}
	// Pairwise guarantee, checked by replaying single answers.
	if len(qs) >= 2 {
		for i, qi := range qs {
			for _, l := range []Label{Positive, Negative} {
				fresh := NewSemijoinSession(inst)
				if err := fresh.Answer(qi, l); err != nil {
					t.Fatalf("answer %v on row %d: %v", l, qi.RIndex, err)
				}
				for j, qj := range qs {
					if i != j && !fresh.IsInformative(qj) {
						t.Errorf("row %d uninformative after row %d answered %v",
							qj.RIndex, qi.RIndex, l)
					}
				}
			}
		}
	}
	if err := s.Answer(qs[0], Positive); err != nil {
		t.Fatal(err)
	}
	if s.Questions() != 1 || len(s.Transcript()) != 1 {
		t.Errorf("questions = %d, transcript = %d", s.Questions(), len(s.Transcript()))
	}
	if err := s.Undo(); err != nil {
		t.Fatal(err)
	}
	if s.Questions() != 0 {
		t.Errorf("after undo questions = %d", s.Questions())
	}
	if !s.IsInformative(qs[0]) {
		t.Error("undone row no longer informative")
	}
}

func TestPrecomputedClassesShared(t *testing.T) {
	inst := paperdata.FlightHotel()
	classes := PrecomputeClasses(inst)
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := honestRun(t, inst, goal)
	shared, _ := honestRun(t, inst, goal, WithPrecomputedClasses(classes))
	if direct.Questions != shared.Questions || !direct.Inferred.Equal(shared.Inferred) {
		t.Errorf("precomputed classes changed the run: %+v vs %+v", direct, shared)
	}
}
