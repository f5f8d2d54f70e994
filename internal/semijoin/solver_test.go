package semijoin

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/predicate"
	"repro/internal/relation"
	"repro/internal/synth"
)

// randSolverInstance builds a small random instance for differential
// solver tests.
func randSolverInstance(r *rand.Rand) *relation.Instance {
	n := 1 + r.Intn(3)
	m := 1 + r.Intn(3)
	vals := 1 + r.Intn(3)
	ra := make([]string, n)
	for i := range ra {
		ra[i] = "A" + strconv.Itoa(i+1)
	}
	pa := make([]string, m)
	for i := range pa {
		pa[i] = "B" + strconv.Itoa(i+1)
	}
	R := relation.NewRelation(relation.MustSchema("R", ra...))
	P := relation.NewRelation(relation.MustSchema("P", pa...))
	for i := 0; i < 2+r.Intn(4); i++ {
		tr := make(relation.Tuple, n)
		for k := range tr {
			tr[k] = strconv.Itoa(r.Intn(vals))
		}
		R.Tuples = append(R.Tuples, tr)
	}
	for i := 0; i < 2+r.Intn(4); i++ {
		tp := make(relation.Tuple, m)
		for k := range tp {
			tp[k] = strconv.Itoa(r.Intn(vals))
		}
		P.Tuples = append(P.Tuples, tp)
	}
	return relation.MustInstance(R, P)
}

// randSample labels a random subset of R's rows.
func randSample(r *rand.Rand, rows int) Sample {
	var s Sample
	for ri := 0; ri < rows; ri++ {
		switch r.Intn(3) {
		case 0:
			s.Pos = append(s.Pos, ri)
		case 1:
			s.Neg = append(s.Neg, ri)
		}
	}
	return s
}

// coldPathInstances are the root cold-path suite's instances: the Figure 7
// configuration (3, 3, 100, 100) and the 72-pair synth (9, 8, 5, 3), both
// seed 1.
func coldPathInstances() []struct {
	name string
	inst *relation.Instance
} {
	return []struct {
		name string
		inst *relation.Instance
	}{
		{"fig7(3,3,100,100)", synth.MustGenerate(synth.PaperConfigs()[0], 1)},
		{"synth(9,8,5,3)", synth.MustGenerate(synth.Config{AttrsR: 9, AttrsP: 8, Rows: 5, Values: 3}, 1)},
	}
}

// goalSample labels a random subset of R's rows (each with probability
// 1/every) the way an honest user with a random one-pair goal would, so
// the sample is consistent by construction.
func goalSample(r *rand.Rand, inst *relation.Instance, every int) Sample {
	u := predicate.NewUniverse(inst)
	var goal predicate.Pred
	goal.Set.Add(r.Intn(u.Size()))
	kept := make(map[int]bool)
	for _, ri := range predicate.Semijoin(inst, u, goal) {
		kept[ri] = true
	}
	var s Sample
	for ri := 0; ri < inst.R.Len(); ri++ {
		if r.Intn(every) != 0 {
			continue
		}
		if kept[ri] {
			s.Pos = append(s.Pos, ri)
		} else {
			s.Neg = append(s.Neg, ri)
		}
	}
	return s
}

// checkConsistent compares the solver's CONS⋉ decision with the
// reference search: same error, verdict and witness predicate.
func checkConsistent(t *testing.T, inst *relation.Instance, sv *Solver, s Sample) {
	t.Helper()
	wantTheta, wantOK, wantErr := Consistent(inst, s)
	gotTheta, gotOK, gotErr := sv.Consistent(s)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("sample %+v: err %v vs %v", s, wantErr, gotErr)
	}
	if wantOK != gotOK {
		t.Fatalf("sample %+v: solver ok=%v, reference ok=%v", s, gotOK, wantOK)
	}
	if wantOK && !wantTheta.Equal(gotTheta) {
		t.Fatalf("sample %+v: solver θ=%v, reference θ=%v", s, gotTheta, wantTheta)
	}
}

// checkInformative compares the solver's informativeness decision with the
// reference for every unlabeled row; inconsistent bases are skipped, as
// only consistent ones arise in sessions.
func checkInformative(t *testing.T, inst *relation.Instance, sv *Solver, s Sample) {
	t.Helper()
	if _, ok, err := Consistent(inst, s); err != nil || !ok {
		return
	}
	labeled := make(map[int]bool)
	for _, i := range s.Pos {
		labeled[i] = true
	}
	for _, i := range s.Neg {
		labeled[i] = true
	}
	for ri := 0; ri < inst.R.Len(); ri++ {
		if labeled[ri] {
			continue
		}
		want, wantErr := Informative(inst, s, ri)
		got, gotErr := sv.Informative(s, ri)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("row %d: err %v vs %v", ri, wantErr, gotErr)
		}
		if want != got {
			t.Fatalf("sample %+v row %d: solver %v, reference %v", s, ri, got, want)
		}
	}
}

// TestSolverMatchesConsistent: the scratch-based solver decides CONS⋉
// exactly like the reference search — same verdict and same witness
// predicate — across random instances and samples and on the cold-path
// instances, with the solver reused across samples so the witness cache is
// exercised.
func TestSolverMatchesConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 120; trial++ {
		inst := randSolverInstance(r)
		sv := NewSolver(inst)
		for probe := 0; probe < 6; probe++ {
			checkConsistent(t, inst, sv, randSample(r, inst.R.Len()))
		}
	}
	for _, c := range coldPathInstances() {
		inst := c.inst
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(3))
			sv := NewSolver(inst)
			for probe := 0; probe < 20; probe++ {
				checkConsistent(t, inst, sv, goalSample(r, inst, 4))
				checkConsistent(t, inst, sv, randSample(r, inst.R.Len()))
			}
		})
	}
}

// TestSolverMatchesInformative: solver informativeness decisions equal the
// reference ones for every row under random samples, on random instances
// and on the cold-path instances.
func TestSolverMatchesInformative(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		inst := randSolverInstance(r)
		sv := NewSolver(inst)
		for probe := 0; probe < 4; probe++ {
			checkInformative(t, inst, sv, randSample(r, inst.R.Len()))
		}
	}
	for _, c := range coldPathInstances() {
		inst := c.inst
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			sv := NewSolver(inst)
			for probe := 0; probe < 4; probe++ {
				checkInformative(t, inst, sv, goalSample(r, inst, 10))
			}
		})
	}
}

// TestSolverValidation: the scratch validation rejects exactly what the
// reference Sample.Validate rejects, and leaves the scratch clean for the
// next call.
func TestSolverValidation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	inst := randSolverInstance(r)
	sv := NewSolver(inst)
	bad := []Sample{
		{Pos: []int{0, 0}},
		{Pos: []int{0}, Neg: []int{0}},
		{Neg: []int{inst.R.Len()}},
		{Pos: []int{-1}},
	}
	for i, s := range bad {
		if _, _, err := sv.Consistent(s); err == nil {
			t.Errorf("bad sample %d accepted: %+v", i, s)
		}
	}
	// A valid call right after the rejects must still work (scratch reset).
	if _, ok, err := sv.Consistent(Sample{Pos: []int{0}}); err != nil {
		t.Fatalf("valid sample after rejects: %v (ok=%v)", err, ok)
	}
}
