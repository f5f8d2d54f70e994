package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	joininference "repro"
)

func writeCSVs(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	f := filepath.Join(dir, "Flight.csv")
	h := filepath.Join(dir, "Hotel.csv")
	os.WriteFile(f, []byte("From,To,Airline\nParis,Lille,AF\nLille,NYC,AA\nNYC,Paris,AA\nParis,NYC,AF\n"), 0o644)
	os.WriteFile(h, []byte("City,Discount\nNYC,AA\nParis,None\nLille,AF\n"), 0o644)
	return f, h
}

func TestRunSimulated(t *testing.T) {
	f, h := writeCSVs(t)
	path := filepath.Join(t.TempDir(), "session.json")
	opts := options{
		strategy: "TD",
		simulate: "Flight.To = Hotel.City",
		sql:      true,
		snapshot: path,
	}
	if err := run(f, h, opts); err != nil {
		t.Fatal(err)
	}
	// The snapshot resumes into the session the run ended with.
	inst, err := joininference.LoadCSV(f, h)
	if err != nil {
		t.Fatal(err)
	}
	want := joininference.NewSession(inst, joininference.WithStrategy("TD"))
	goal, err := joininference.ParsePredicate(want.Universe(), opts.simulate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := joininference.Run(context.Background(), want, joininference.HonestOracle(goal)); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	snap, err := joininference.DecodeSnapshot(file)
	if err != nil {
		t.Fatal(err)
	}
	got, err := joininference.ResumeSession(inst, snap)
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions() == 0 || got.Questions() != want.Questions() || !got.Inferred().Equal(want.Inferred()) {
		t.Errorf("resumed %d questions, inferred %v; want %d, %v",
			got.Questions(), got.Inferred(), want.Questions(), want.Inferred())
	}
	if !got.Done() {
		t.Error("resumed session should be done")
	}
}

func TestRunSimulatedBudget(t *testing.T) {
	f, h := writeCSVs(t)
	opts := options{strategy: "L1S", simulate: "TRUE", max: 1}
	if err := run(f, h, opts); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadInputs(t *testing.T) {
	f, h := writeCSVs(t)
	if err := run("/nope.csv", h, options{strategy: "TD", simulate: "TRUE"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := run(f, h, options{strategy: "TD", simulate: "garbage = ="}); err == nil {
		t.Error("bad goal accepted")
	}
}
