package semijoin

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/paperdata"
	"repro/internal/predicate"
	"repro/internal/relation"
)

// TestSemijoinSampleSection6 replays the Section 6 example: on Example 2.1,
// S'+ = {t1, t2}, S'− = {t3}; the predicate θ' = {(A1,B2)} is consistent.
func TestSemijoinSampleSection6(t *testing.T) {
	inst := paperdata.Example21()
	u := predicate.NewUniverse(inst)
	s := Sample{Pos: []int{0, 1}, Neg: []int{2}}

	// Consistency of θ' = {(A1,B2)}: it selects both positives and not the
	// negative (it also selects the unlabeled t4, which is fine).
	thetaP := predicate.MustFromNames(u, [2]string{"A1", "B2"})
	semi := predicate.Semijoin(inst, u, thetaP)
	sel0 := make(map[int]bool)
	for _, ri := range semi {
		sel0[ri] = true
	}
	if !sel0[0] || !sel0[1] || sel0[2] {
		t.Fatalf("R ⋉θ' P = %v; θ' should select t1,t2 and not t3", semi)
	}

	got, ok, err := NewSolver(inst).Consistent(s)
	if err != nil || !ok {
		t.Fatalf("Consistent = %v, %v, %v; want consistent", got, ok, err)
	}
	// Verify the returned predicate really is consistent.
	sel := make(map[int]bool)
	for _, ri := range predicate.Semijoin(inst, u, got) {
		sel[ri] = true
	}
	if !sel[0] || !sel[1] || sel[2] {
		t.Errorf("returned predicate %v selects %v", got.Format(u), sel)
	}
}

func TestValidate(t *testing.T) {
	inst := paperdata.Example21()
	if err := (Sample{Pos: []int{0}, Neg: []int{99}}).Validate(inst); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := (Sample{Pos: []int{0}, Neg: []int{0}}).Validate(inst); err == nil {
		t.Error("double-labeled tuple accepted")
	}
	if err := (Sample{Pos: []int{-1}}).Validate(inst); err == nil {
		t.Error("negative index accepted")
	}
	if _, _, err := Consistent(inst, Sample{Pos: []int{99}}); err == nil {
		t.Error("Consistent accepted invalid sample")
	}
	if _, _, err := BruteForce(inst, Sample{Pos: []int{99}}); err == nil {
		t.Error("BruteForce accepted invalid sample")
	}
}

func TestEmptySampleConsistent(t *testing.T) {
	inst := paperdata.Example21()
	_, ok, err := NewSolver(inst).Consistent(Sample{})
	if err != nil || !ok {
		t.Errorf("empty sample should be consistent (err=%v)", err)
	}
}

func TestOnlyNegatives(t *testing.T) {
	inst := paperdata.Example21()
	// Ω selects nothing on Example 2.1, so all-negative samples are
	// consistent.
	theta, ok, err := NewSolver(inst).Consistent(Sample{Neg: []int{0, 1, 2, 3}})
	if err != nil || !ok {
		t.Fatalf("all-negative sample should be consistent (err=%v)", err)
	}
	u := predicate.NewUniverse(inst)
	if got := predicate.Semijoin(inst, u, theta); len(got) != 0 {
		t.Errorf("returned predicate selects %v", got)
	}
}

func TestInconsistentSample(t *testing.T) {
	// R with two identical tuples, one positive one negative: any θ treats
	// them identically → inconsistent.
	R := relation.NewRelation(relation.MustSchema("R", "A1"))
	R.MustAddTuple("1")
	R.MustAddTuple("1")
	P := relation.NewRelation(relation.MustSchema("P", "B1"))
	P.MustAddTuple("1")
	inst := relation.MustInstance(R, P)
	_, ok, err := NewSolver(inst).Consistent(Sample{Pos: []int{0}, Neg: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("identical tuples with opposite labels reported consistent")
	}
}

func TestPositiveWithEmptyP(t *testing.T) {
	R := relation.NewRelation(relation.MustSchema("R", "A1"))
	R.MustAddTuple("1")
	P := relation.NewRelation(relation.MustSchema("P", "B1"))
	inst := relation.MustInstance(R, P)
	_, ok, err := NewSolver(inst).Consistent(Sample{Pos: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("positive example with empty P reported consistent")
	}
}

// TestEval: the rows a predicate selects through the solver's witness
// sets are exactly R ⋉θ P as predicate.Semijoin evaluates it.
func TestEval(t *testing.T) {
	inst := paperdata.Example21()
	u := predicate.NewUniverse(inst)
	theta := predicate.MustFromNames(u, [2]string{"A2", "B2"})
	got := predicate.Semijoin(inst, u, theta)
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("R ⋉θ P = %v, want [0 3]", got)
	}
	sv := NewSolver(inst)
	var viaWitnesses []int
	for ri := range inst.R.Tuples {
		if selects(theta, sv.Witnesses(ri)) {
			viaWitnesses = append(viaWitnesses, ri)
		}
	}
	if !slices.Equal(viaWitnesses, got) {
		t.Errorf("witness selection = %v, want %v", viaWitnesses, got)
	}
}

func randInstance(r *rand.Rand) *relation.Instance {
	n := 1 + r.Intn(2)
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
	for i := 0; i < 1+r.Intn(4); i++ {
		tp := make(relation.Tuple, m)
		for k := range tp {
			tp[k] = strconv.Itoa(r.Intn(vals))
		}
		P.Tuples = append(P.Tuples, tp)
	}
	return relation.MustInstance(R, P)
}

// TestQuickConsistentMatchesBruteForce: the witness-assignment search —
// the reference and the Solver — and the definitional enumeration agree on
// random instances and samples.
func TestQuickConsistentMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randInstance(r)
		var s Sample
		for i := 0; i < inst.R.Len(); i++ {
			switch r.Intn(3) {
			case 0:
				s.Pos = append(s.Pos, i)
			case 1:
				s.Neg = append(s.Neg, i)
			}
		}
		gotTheta, got, err := Consistent(inst, s)
		if err != nil {
			return false
		}
		_, want, err := BruteForce(inst, s)
		if err != nil {
			return false
		}
		solverTheta, solverGot, err := NewSolver(inst).Consistent(s)
		if err != nil || got != want || solverGot != want || (got && !solverTheta.Equal(gotTheta)) {
			return false
		}
		if got {
			// Verify the witness predicate by direct evaluation.
			u := predicate.NewUniverse(inst)
			sel := make(map[int]bool)
			for _, ri := range predicate.Semijoin(inst, u, gotTheta) {
				sel[ri] = true
			}
			for _, i := range s.Pos {
				if !sel[i] {
					return false
				}
			}
			for _, j := range s.Neg {
				if sel[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
