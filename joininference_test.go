package joininference

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/paperdata"
)

// flightHotelCSVs writes the Figure 1 tables to temp CSV files.
func flightHotelCSVs(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	flights := filepath.Join(dir, "Flight.csv")
	hotels := filepath.Join(dir, "Hotel.csv")
	if err := os.WriteFile(flights, []byte(
		"From,To,Airline\nParis,Lille,AF\nLille,NYC,AA\nNYC,Paris,AA\nParis,NYC,AF\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(hotels, []byte(
		"City,Discount\nNYC,AA\nParis,None\nLille,AF\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return flights, hotels
}

func TestLoadCSV(t *testing.T) {
	f, h := flightHotelCSVs(t)
	inst, err := LoadCSV(f, h)
	if err != nil {
		t.Fatal(err)
	}
	if inst.R.Schema.Name != "Flight" || inst.P.Schema.Name != "Hotel" {
		t.Errorf("names = %s, %s", inst.R.Schema.Name, inst.P.Schema.Name)
	}
	if inst.ProductSize() != 12 {
		t.Errorf("product = %d", inst.ProductSize())
	}
	if _, err := LoadCSV("/nonexistent.csv", h); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := LoadCSV(f, "/nonexistent.csv"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestSessionTravelScenario replays the introduction: inferring Q2
// (To=City ∧ Airline=Discount) on the Flight/Hotel instance.
func TestSessionTravelScenario(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := sessionUniverse(t, inst)
	q2, err := PredFromNames(u, [2]string{"To", "City"}, [2]string{"Airline", "Discount"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []StrategyID{StrategyBU, StrategyTD, StrategyL1S, StrategyL2S, StrategyRND} {
		res, err := Run(context.Background(), NewSession(inst, WithStrategy(id)), HonestOracle(q2))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got, asked := res.Inferred, res.Questions
		if asked < 1 || asked > 12 {
			t.Errorf("%s asked %d questions", id, asked)
		}
		// Instance equivalence with Q2.
		gj := Join(inst, q2)
		rj := Join(inst, got)
		if len(gj) != len(rj) {
			t.Errorf("%s inferred %v (selects %d), want equivalent to Q2 (selects %d)",
				id, got.Format(u), len(rj), len(gj))
		}
	}
}

func sessionUniverse(t *testing.T, inst *Instance) *Universe {
	t.Helper()
	return NewSession(inst).Universe()
}

func TestSessionStepByStep(t *testing.T) {
	inst := paperdata.FlightHotel()
	s := NewSession(inst)
	if s.Done() {
		t.Fatal("fresh session already done")
	}
	if s.Classes() < 2 {
		t.Fatalf("classes = %d", s.Classes())
	}
	u := s.Universe()
	q1, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for {
		qs, err := s.NextQuestions(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) == 0 {
			break
		}
		q := qs[0]
		if q.EquivalentTuples < 1 {
			t.Fatalf("question with class size %d", q.EquivalentTuples)
		}
		l := Negative
		if q1.Selects(u, q.RTuple, q.PTuple) {
			l = Positive
		}
		if err := s.Answer(q, l); err != nil {
			t.Fatal(err)
		}
	}
	if s.Questions() == 0 {
		t.Error("no questions recorded")
	}
	got := s.Inferred()
	gj := Join(inst, q1)
	rj := Join(inst, got)
	if len(gj) != len(rj) {
		t.Errorf("inferred %v, not equivalent to Q1", got.Format(u))
	}
	// After done, NextQuestions returns an empty batch with no error.
	if qs, err := s.NextQuestions(ctx, 1); err != nil || len(qs) != 0 {
		t.Errorf("NextQuestions after done = %v, %v", qs, err)
	}
}

func TestAnswerInconsistent(t *testing.T) {
	inst := paperdata.Example21()
	// Answer everything positive: eventually T(S+) = ∅ makes the rest
	// certain; answering all-positive stays consistent, so instead answer
	// the first positive then a certain contradiction cannot be asked —
	// use Run with a lying oracle that alternates labels randomly to
	// trigger inconsistency at least sometimes.
	lie := true
	_, err := Run(context.Background(), NewSession(inst, WithStrategy(StrategyBU)), FuncOracle(func(q Question) Label {
		lie = !lie
		if lie {
			return Positive
		}
		return Negative
	}))
	// The alternating liar labels ∅ negative first, then something
	// positive... whether it errors depends on the trace; both outcomes
	// are legal. If it errors, it must be the inconsistency error.
	if err != nil && !strings.Contains(err.Error(), "inconsistent") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestNewSchemaRelationInstance(t *testing.T) {
	sch, err := NewSchema("R", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRelation(sch)
	r.MustAddTuple("1", "2")
	sch2, _ := NewSchema("P", "C")
	p := NewRelation(sch2)
	p.MustAddTuple("1")
	inst, err := NewInstance(r, p)
	if err != nil {
		t.Fatal(err)
	}
	if inst.ProductSize() != 1 {
		t.Error("product size")
	}
	if _, err := NewSchema("", "A"); err == nil {
		t.Error("bad schema accepted")
	}
}

func TestReadCSVPublic(t *testing.T) {
	r, err := ReadCSV("R", strings.NewReader("A,B\n1,2\n"))
	if err != nil || r.Len() != 1 {
		t.Errorf("ReadCSV: %v, len %d", err, r.Len())
	}
}

func TestJoinRatioPublic(t *testing.T) {
	if jr := JoinRatio(paperdata.Example21()); jr != 2.0 {
		t.Errorf("JoinRatio = %v, want 2", jr)
	}
}

func TestBaseName(t *testing.T) {
	cases := map[string]string{
		"/a/b/Flight.csv": "Flight",
		"Hotel.csv":       "Hotel",
		"noext":           "noext",
		`C:\data\R.csv`:   "R",
	}
	for in, want := range cases {
		if got := baseName(in); got != want {
			t.Errorf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPredFromNamesError(t *testing.T) {
	u := sessionUniverse(t, paperdata.FlightHotel())
	if _, err := PredFromNames(u, [2]string{"Nope", "City"}); err == nil {
		t.Error("bad attribute accepted")
	}
}
