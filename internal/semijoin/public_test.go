package semijoin_test

import (
	"math/rand"
	"testing"

	joininference "repro"
	"repro/internal/semijoin"
	"repro/internal/synth"
)

// TestSolverBacksSemijoinConsistent: the public SemijoinConsistent returns
// exactly the reference search's (predicate, ok, err) — valid samples and
// invalid ones (indexes out of range, rows labeled twice) alike.
func TestSolverBacksSemijoinConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		cfg := synth.Config{AttrsR: 1 + r.Intn(3), AttrsP: 1 + r.Intn(3), Rows: 2 + r.Intn(5), Values: 1 + r.Intn(3)}
		inst := synth.MustGenerate(cfg, int64(trial))
		var s joininference.SemijoinSample
		for ri := 0; ri < inst.R.Len(); ri++ {
			switch r.Intn(3) {
			case 0:
				s.Keep = append(s.Keep, ri)
			case 1:
				s.Drop = append(s.Drop, ri)
			}
		}
		switch r.Intn(8) {
		case 0:
			s.Keep = append(s.Keep, inst.R.Len()) // out of range
		case 1:
			s.Drop = append(s.Drop, -1) // out of range
		case 2:
			s.Drop = append(s.Drop, r.Intn(inst.R.Len()), r.Intn(inst.R.Len())) // may repeat
		}
		got, gotOK, gotErr := joininference.SemijoinConsistent(inst, s)
		want, wantOK, wantErr := semijoin.Consistent(inst, semijoin.Sample{Pos: s.Keep, Neg: s.Drop})
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("trial %d %v sample %+v: err %v, reference %v", trial, cfg, s, gotErr, wantErr)
		}
		if gotOK != wantOK || !got.Equal(want) {
			t.Fatalf("trial %d %v sample %+v: (%v, %v), reference (%v, %v)", trial, cfg, s, got, gotOK, want, wantOK)
		}
	}
}
