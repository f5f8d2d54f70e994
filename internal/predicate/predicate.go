// Package predicate implements equijoin and semijoin predicates over a pair
// of relations, together with the paper's central tool: the most specific
// join predicate T(t) selecting a tuple t of the Cartesian product.
//
// A join predicate θ is a subset of Ω = attrs(R) × attrs(P) (Section 2).
// Pairs are numbered i·m + j for (A_i, B_j) with m = |attrs(P)| and the
// predicate itself is a bit set over that universe, so subset tests,
// intersections and the lattice order are single-word operations for
// ordinary schemas.
package predicate

import (
	"fmt"
	"strings"

	"repro/internal/bitset"
	"repro/internal/relation"
)

// Universe describes Ω = attrs(R) × attrs(P) for a concrete instance and
// owns the numbering of attribute pairs.
type Universe struct {
	RSchema *relation.Schema
	PSchema *relation.Schema
	n, m    int // |attrs(R)|, |attrs(P)|
}

// NewUniverse builds the pair universe for an instance.
func NewUniverse(inst *relation.Instance) *Universe {
	return &Universe{
		RSchema: inst.R.Schema,
		PSchema: inst.P.Schema,
		n:       inst.R.Schema.Arity(),
		m:       inst.P.Schema.Arity(),
	}
}

// Size returns |Ω| = n·m.
func (u *Universe) Size() int { return u.n * u.m }

// PairID maps attribute positions (i over R, j over P) to the pair index.
func (u *Universe) PairID(i, j int) int {
	if i < 0 || i >= u.n || j < 0 || j >= u.m {
		panic(fmt.Sprintf("predicate: pair (%d,%d) outside %dx%d universe", i, j, u.n, u.m))
	}
	return i*u.m + j
}

// Pair inverts PairID.
func (u *Universe) Pair(id int) (i, j int) {
	if id < 0 || id >= u.Size() {
		panic(fmt.Sprintf("predicate: pair id %d outside universe of size %d", id, u.Size()))
	}
	return id / u.m, id % u.m
}

// PairName renders pair id as "(R.A, P.B)".
func (u *Universe) PairName(id int) string {
	i, j := u.Pair(id)
	return fmt.Sprintf("(%s.%s, %s.%s)",
		u.RSchema.Name, u.RSchema.Attributes[i],
		u.PSchema.Name, u.PSchema.Attributes[j])
}

// Pred is a join predicate: a set of attribute pairs from Ω. The zero value
// is the most general predicate ∅ (select everything).
type Pred struct {
	Set bitset.Set
}

// Empty returns the most general predicate ∅.
func Empty() Pred { return Pred{} }

// Omega returns the most specific predicate Ω for the universe.
func Omega(u *Universe) Pred { return Pred{Set: bitset.Universe(u.Size())} }

// FromPairs builds a predicate from (R-attr index, P-attr index) pairs.
func FromPairs(u *Universe, pairs ...[2]int) Pred {
	s := bitset.New(u.Size())
	for _, p := range pairs {
		s.Add(u.PairID(p[0], p[1]))
	}
	return Pred{Set: s}
}

// FromNames builds a predicate from attribute-name pairs such as
// ("To", "City"). It returns an error for unknown attribute names.
func FromNames(u *Universe, pairs ...[2]string) (Pred, error) {
	s := bitset.New(u.Size())
	for _, p := range pairs {
		i := u.RSchema.IndexOf(p[0])
		if i < 0 {
			return Pred{}, fmt.Errorf("predicate: %s has no attribute %q", u.RSchema.Name, p[0])
		}
		j := u.PSchema.IndexOf(p[1])
		if j < 0 {
			return Pred{}, fmt.Errorf("predicate: %s has no attribute %q", u.PSchema.Name, p[1])
		}
		s.Add(u.PairID(i, j))
	}
	return Pred{Set: s}, nil
}

// MustFromNames is FromNames that panics on error.
func MustFromNames(u *Universe, pairs ...[2]string) Pred {
	p, err := FromNames(u, pairs...)
	if err != nil {
		panic(err)
	}
	return p
}

// Size returns |θ|, the number of equality conditions.
func (p Pred) Size() int { return p.Set.Len() }

// IsEmpty reports whether θ = ∅ (the most general predicate).
func (p Pred) IsEmpty() bool { return p.Set.IsEmpty() }

// Equal reports predicate equality.
func (p Pred) Equal(q Pred) bool { return p.Set.Equal(q.Set) }

// MoreGeneralThan reports p ⊆ q: p is more general than (or equal to) q.
// By anti-monotonicity (Section 2), p ⊆ q implies R ⋈q P ⊆ R ⋈p P.
func (p Pred) MoreGeneralThan(q Pred) bool { return p.Set.SubsetOf(q.Set) }

// Intersect returns p ∩ q.
func (p Pred) Intersect(q Pred) Pred { return Pred{Set: p.Set.Intersect(q.Set)} }

// IntersectInto replaces dst with p ∩ q, reusing dst's backing storage —
// the allocation-free Intersect used by the certainty-test hot paths.
func IntersectInto(dst *Pred, p, q Pred) { bitset.IntersectInto(&dst.Set, p.Set, q.Set) }

// Union returns p ∪ q.
func (p Pred) Union(q Pred) Pred { return Pred{Set: p.Set.Union(q.Set)} }

// Clone returns an independent copy.
func (p Pred) Clone() Pred { return Pred{Set: p.Set.Clone()} }

// Key returns a canonical map key for the predicate.
func (p Pred) Key() string { return p.Set.Key() }

// Format renders the predicate with attribute names, e.g.
// "Flight.To = Hotel.City ∧ Flight.Airline = Hotel.Discount"; ∅ renders as
// "TRUE", so every text parses back (querytext.ParsePredicate).
func (p Pred) Format(u *Universe) string {
	if p.IsEmpty() {
		return "TRUE"
	}
	var parts []string
	p.Set.ForEach(func(id int) bool {
		i, j := u.Pair(id)
		parts = append(parts, fmt.Sprintf("%s.%s = %s.%s",
			u.RSchema.Name, u.RSchema.Attributes[i],
			u.PSchema.Name, u.PSchema.Attributes[j]))
		return true
	})
	return strings.Join(parts, " ∧ ")
}

// String renders the predicate as raw pair ids; use Format for names.
func (p Pred) String() string { return p.Set.String() }

// T computes the most specific equijoin predicate selecting the product
// tuple (tR, tP): T(t) = {(A_i, B_j) | tR[A_i] = tP[B_j]} (Section 3).
func T(u *Universe, tR, tP relation.Tuple) Pred {
	s := bitset.New(u.Size())
	for i := 0; i < u.n; i++ {
		v := tR[i]
		for j := 0; j < u.m; j++ {
			if tP[j] == v {
				s.Add(u.PairID(i, j))
			}
		}
	}
	return Pred{Set: s}
}

// TSet computes T(U) = ∩_{t∈U} T(t) for a set of product tuples given as
// their T values. For an empty U it returns Ω, the neutral element of
// intersection, which matches the paper's use: with no positive examples
// every predicate (in particular Ω) still selects all of S+.
func TSet(u *Universe, ts []Pred) Pred {
	out := Omega(u)
	for _, t := range ts {
		out.Set.IntersectInPlace(t.Set)
	}
	return out
}

// Selects reports whether θ selects the product tuple (tR, tP):
// t ∈ R ⋈θ P ⇔ θ ⊆ T(t).
func (p Pred) Selects(u *Universe, tR, tP relation.Tuple) bool {
	ok := true
	p.Set.ForEach(func(id int) bool {
		i, j := u.Pair(id)
		if tR[i] != tP[j] {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// Join materializes R ⋈θ P as pairs of tuple indexes (ri, pi) into the
// instance, in row-major order. Intended for tests and small instances;
// the inference engine itself never materializes joins.
func Join(inst *relation.Instance, u *Universe, p Pred) [][2]int {
	var out [][2]int
	for ri, tR := range inst.R.Tuples {
		if !inst.RAlive(ri) {
			continue
		}
		for pi, tP := range inst.P.Tuples {
			if !inst.PAlive(pi) {
				continue
			}
			if p.Selects(u, tR, tP) {
				out = append(out, [2]int{ri, pi})
			}
		}
	}
	return out
}

// Semijoin materializes R ⋉θ P = Π_attrs(R)(R ⋈θ P) as R-tuple indexes in
// increasing order.
func Semijoin(inst *relation.Instance, u *Universe, p Pred) []int {
	var out []int
	for ri, tR := range inst.R.Tuples {
		if !inst.RAlive(ri) {
			continue
		}
		for pi, tP := range inst.P.Tuples {
			if !inst.PAlive(pi) {
				continue
			}
			if p.Selects(u, tR, tP) {
				out = append(out, ri)
				break
			}
		}
	}
	return out
}

// NonNullable reports whether θ selects at least one tuple of the product
// (Section 4.2). θ is non-nullable iff θ ⊆ T(t) for some product tuple t.
func NonNullable(inst *relation.Instance, u *Universe, p Pred) bool {
	for ri, tR := range inst.R.Tuples {
		if !inst.RAlive(ri) {
			continue
		}
		for pi, tP := range inst.P.Tuples {
			if !inst.PAlive(pi) {
				continue
			}
			if p.Selects(u, tR, tP) {
				return true
			}
		}
	}
	return false
}
