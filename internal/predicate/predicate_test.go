package predicate

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/paperdata"
	"repro/internal/relation"
)

func example21() (*relation.Instance, *Universe) {
	inst := paperdata.Example21()
	return inst, NewUniverse(inst)
}

func TestUniversePairNumbering(t *testing.T) {
	_, u := example21()
	if u.Size() != 6 {
		t.Fatalf("Size = %d, want 6 (2x3)", u.Size())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			id := u.PairID(i, j)
			gi, gj := u.Pair(id)
			if gi != i || gj != j {
				t.Errorf("Pair(PairID(%d,%d)) = (%d,%d)", i, j, gi, gj)
			}
		}
	}
	if got := u.PairName(u.PairID(0, 2)); got != "(R0.A1, P0.B3)" {
		t.Errorf("PairName = %q", got)
	}
}

func TestUniversePanicsOutOfRange(t *testing.T) {
	_, u := example21()
	for _, fn := range []func(){
		func() { u.PairID(2, 0) },
		func() { u.PairID(0, 3) },
		func() { u.PairID(-1, 0) },
		func() { u.Pair(6) },
		func() { u.Pair(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range pair access did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestTFigure3 verifies T(t) for every tuple of the Cartesian product of
// Example 2.1 against the T column of Figure 3.
func TestTFigure3(t *testing.T) {
	inst, u := example21()
	// want[ri][pi] lists the expected pairs as (i,j) indexes:
	// A1→0, A2→1; B1→0, B2→1, B3→2.
	want := map[[2]int][][2]int{
		{0, 0}: {{0, 2}, {1, 0}, {1, 1}}, // (t1,t1'): (A1,B3),(A2,B1),(A2,B2)
		{0, 1}: {{0, 0}, {1, 1}},         // (t1,t2'): (A1,B1),(A2,B2)
		{0, 2}: {{0, 1}, {0, 2}},         // (t1,t3'): (A1,B2),(A1,B3)
		{1, 0}: {{0, 2}},                 // (t2,t1'): (A1,B3)
		{1, 1}: {{0, 0}, {1, 2}},         // (t2,t2'): (A1,B1),(A2,B3)
		{1, 2}: {{0, 1}, {0, 2}, {1, 0}}, // (t2,t3'): (A1,B2),(A1,B3),(A2,B1)
		{2, 0}: {},                       // (t3,t1'): ∅
		{2, 1}: {{0, 2}, {1, 2}},         // (t3,t2'): (A1,B3),(A2,B3)
		{2, 2}: {{0, 0}, {1, 0}},         // (t3,t3'): (A1,B1),(A2,B1)
		{3, 0}: {{0, 0}, {0, 1}, {1, 2}}, // (t4,t1'): (A1,B1),(A1,B2),(A2,B3)
		{3, 1}: {{0, 1}, {1, 0}},         // (t4,t2'): (A1,B2),(A2,B1)
		{3, 2}: {{1, 1}, {1, 2}},         // (t4,t3'): (A2,B2),(A2,B3)
	}
	for ri := 0; ri < inst.R.Len(); ri++ {
		for pi := 0; pi < inst.P.Len(); pi++ {
			got := T(u, inst.R.Tuples[ri], inst.P.Tuples[pi])
			exp := FromPairs(u, want[[2]int{ri, pi}]...)
			if !got.Equal(exp) {
				t.Errorf("T(t%d, t%d') = %v, want %v", ri+1, pi+1, got, exp)
			}
		}
	}
}

// TestJoinExample21 verifies the three joins computed in Example 2.1.
func TestJoinExample21(t *testing.T) {
	inst, u := example21()
	theta1 := FromPairs(u, [2]int{0, 0}, [2]int{1, 2}) // {(A1,B1),(A2,B3)}
	theta2 := FromPairs(u, [2]int{1, 1})               // {(A2,B2)}
	theta3 := FromPairs(u, [2]int{1, 0}, [2]int{1, 1}, [2]int{1, 2})

	check := func(name string, got [][2]int, want [][2]int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: join = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: join = %v, want %v", name, got, want)
			}
		}
	}
	// R0 ⋈θ1 P0 = {(t2,t2'), (t4,t1')}
	check("theta1", Join(inst, u, theta1), [][2]int{{1, 1}, {3, 0}})
	// R0 ⋈θ2 P0 = {(t1,t1'), (t1,t2'), (t4,t3')}
	check("theta2", Join(inst, u, theta2), [][2]int{{0, 0}, {0, 1}, {3, 2}})
	// R0 ⋈θ3 P0 = ∅
	if got := Join(inst, u, theta3); len(got) != 0 {
		t.Errorf("theta3 join = %v, want empty", got)
	}
}

// TestSemijoinExample21 verifies the three semijoins of Example 2.1.
func TestSemijoinExample21(t *testing.T) {
	inst, u := example21()
	theta1 := FromPairs(u, [2]int{0, 0}, [2]int{1, 2})
	theta2 := FromPairs(u, [2]int{1, 1})
	theta3 := FromPairs(u, [2]int{1, 0}, [2]int{1, 1}, [2]int{1, 2})

	checkInts := func(name string, got, want []int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: semijoin = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: semijoin = %v, want %v", name, got, want)
			}
		}
	}
	checkInts("theta1", Semijoin(inst, u, theta1), []int{1, 3}) // {t2, t4}
	checkInts("theta2", Semijoin(inst, u, theta2), []int{0, 3}) // {t1, t4}
	checkInts("theta3", Semijoin(inst, u, theta3), nil)         // ∅
}

func TestEmptyPredicateSelectsEverything(t *testing.T) {
	inst, u := example21()
	if got := len(Join(inst, u, Empty())); got != 12 {
		t.Errorf("∅ selects %d tuples, want all 12", got)
	}
}

func TestOmegaSelectsNothingHere(t *testing.T) {
	inst, u := example21()
	// Ω requires all attribute values equal; Example 2.1 has no such pair.
	if got := Join(inst, u, Omega(u)); len(got) != 0 {
		t.Errorf("Ω selects %v, want nothing", got)
	}
	if NonNullable(inst, u, Omega(u)) {
		t.Error("Ω should be nullable on Example 2.1")
	}
	if !NonNullable(inst, u, Empty()) {
		t.Error("∅ should be non-nullable")
	}
}

func TestTSetEmptyIsOmega(t *testing.T) {
	_, u := example21()
	if !TSet(u, nil).Equal(Omega(u)) {
		t.Error("T(∅) should be Ω")
	}
}

func TestTSetIntersection(t *testing.T) {
	inst, u := example21()
	// T({(t2,t2'), (t4,t1')}) = {(A1,B1),(A2,B3)} ∩ {(A1,B1),(A1,B2),(A2,B3)}
	//                         = {(A1,B1),(A2,B3)} — the θ0 of Example 3.1.
	ts := []Pred{
		T(u, inst.R.Tuples[1], inst.P.Tuples[1]),
		T(u, inst.R.Tuples[3], inst.P.Tuples[0]),
	}
	got := TSet(u, ts)
	want := FromPairs(u, [2]int{0, 0}, [2]int{1, 2})
	if !got.Equal(want) {
		t.Errorf("TSet = %v, want %v", got, want)
	}
}

func TestFromNames(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewUniverse(inst)
	q1, err := FromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatalf("FromNames: %v", err)
	}
	if q1.Size() != 1 {
		t.Errorf("Q1 size = %d", q1.Size())
	}
	if got := len(Join(inst, u, q1)); got != 4 {
		t.Errorf("Q1 selects %d tuples, want 4", got)
	}
	q2 := MustFromNames(u, [2]string{"To", "City"}, [2]string{"Airline", "Discount"})
	if got := len(Join(inst, u, q2)); got != 2 {
		// Q2 selects (Paris→Lille AF, Lille AF) and (Lille→NYC AA, NYC AA).
		t.Errorf("Q2 selects %d tuples, want 2", got)
	}
	if !q1.MoreGeneralThan(q2) {
		t.Error("Q1 should be more general than Q2")
	}
	if _, err := FromNames(u, [2]string{"Nope", "City"}); err == nil {
		t.Error("unknown R attribute accepted")
	}
	if _, err := FromNames(u, [2]string{"To", "Nope"}); err == nil {
		t.Error("unknown P attribute accepted")
	}
}

func TestMustFromNamesPanics(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewUniverse(inst)
	defer func() {
		if recover() == nil {
			t.Error("MustFromNames with bad name did not panic")
		}
	}()
	MustFromNames(u, [2]string{"Bad", "City"})
}

func TestFormat(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewUniverse(inst)
	q2 := MustFromNames(u, [2]string{"To", "City"}, [2]string{"Airline", "Discount"})
	want := "Flight.To = Hotel.City ∧ Flight.Airline = Hotel.Discount"
	if got := q2.Format(u); got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
	if got := Empty().Format(u); got != "TRUE" {
		t.Errorf("Format(∅) = %q", got)
	}
}

// randomInstance generates a small random instance for property tests.
func randomInstance(r *rand.Rand) (*relation.Instance, *Universe) {
	n := 1 + r.Intn(3)
	m := 1 + r.Intn(3)
	rows := 1 + r.Intn(5)
	vals := 1 + r.Intn(4)
	attrsR := make([]string, n)
	for i := range attrsR {
		attrsR[i] = "A" + strconv.Itoa(i+1)
	}
	attrsP := make([]string, m)
	for j := range attrsP {
		attrsP[j] = "B" + strconv.Itoa(j+1)
	}
	R := relation.NewRelation(relation.MustSchema("R", attrsR...))
	P := relation.NewRelation(relation.MustSchema("P", attrsP...))
	for i := 0; i < rows; i++ {
		tr := make(relation.Tuple, n)
		for k := range tr {
			tr[k] = strconv.Itoa(r.Intn(vals))
		}
		R.Tuples = append(R.Tuples, tr)
		tp := make(relation.Tuple, m)
		for k := range tp {
			tp[k] = strconv.Itoa(r.Intn(vals))
		}
		P.Tuples = append(P.Tuples, tp)
	}
	inst := relation.MustInstance(R, P)
	return inst, NewUniverse(inst)
}

func randomPred(r *rand.Rand, u *Universe) Pred {
	p := Pred{}
	for id := 0; id < u.Size(); id++ {
		if r.Intn(3) == 0 {
			p.Set.Add(id)
		}
	}
	return p
}

// TestQuickSelectsIffSubsetOfT: t ∈ R ⋈θ P ⇔ θ ⊆ T(t), the fundamental
// observation of Section 3.
func TestQuickSelectsIffSubsetOfT(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst, u := randomInstance(r)
		p := randomPred(r, u)
		for _, tR := range inst.R.Tuples {
			for _, tP := range inst.P.Tuples {
				if p.Selects(u, tR, tP) != p.MoreGeneralThan(T(u, tR, tP)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickAntiMonotonicity: θ1 ⊆ θ2 ⇒ R ⋈θ2 P ⊆ R ⋈θ1 P and
// R ⋉θ2 P ⊆ R ⋉θ1 P (Section 2).
func TestQuickAntiMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst, u := randomInstance(r)
		p1 := randomPred(r, u)
		p2 := p1.Union(randomPred(r, u)) // guarantee p1 ⊆ p2
		join1 := make(map[[2]int]bool)
		for _, pr := range Join(inst, u, p1) {
			join1[pr] = true
		}
		for _, pr := range Join(inst, u, p2) {
			if !join1[pr] {
				return false
			}
		}
		semi1 := make(map[int]bool)
		for _, ri := range Semijoin(inst, u, p1) {
			semi1[ri] = true
		}
		for _, ri := range Semijoin(inst, u, p2) {
			if !semi1[ri] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickSemijoinIsProjectedJoin: R ⋉θ P = Π_attrs(R)(R ⋈θ P).
func TestQuickSemijoinIsProjectedJoin(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst, u := randomInstance(r)
		p := randomPred(r, u)
		proj := make(map[int]bool)
		for _, pr := range Join(inst, u, p) {
			proj[pr[0]] = true
		}
		semi := Semijoin(inst, u, p)
		if len(semi) != len(proj) {
			return false
		}
		for _, ri := range semi {
			if !proj[ri] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
