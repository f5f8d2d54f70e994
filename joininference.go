// Package joininference is a Go implementation of "Interactive Inference of
// Join Queries" (Bonifati, Ciucanu, Staworko — EDBT 2014): inferring an
// equijoin predicate across two relations from simple Yes/No tuple labels,
// with no knowledge of integrity constraints.
//
// # Model
//
// Given relations R and P, a join predicate θ is a set of attribute pairs
// from Ω = attrs(R) × attrs(P); R ⋈θ P selects the tuples of R × P agreeing
// on every pair. The user has a goal predicate in mind and answers
// membership queries: "is this tuple part of your join?" The session asks
// only *informative* tuples — those whose label actually narrows the set of
// consistent predicates, a PTIME test (Theorem 3.5) — and stops when at
// most one predicate (up to instance equivalence) remains.
//
// # Quick start
//
// A session is configured once with functional options and then driven
// either by Run against an Oracle, or question by question:
//
//	inst, _ := joininference.LoadCSV("flights.csv", "hotels.csv")
//	session := joininference.NewSession(inst,
//		joininference.WithStrategy(joininference.StrategyL2S),
//		joininference.WithBudget(50))
//	for {
//		qs, err := session.NextQuestions(ctx, 1)
//		if err != nil || len(qs) == 0 {
//			break // done, budget spent, or cancelled
//		}
//		session.Answer(qs[0], askUser(qs[0])) // your UI
//	}
//	fmt.Println(session.Inferred().Format(session.Universe()))
//
// Non-interactive runs plug in an Oracle — an honest simulated user, an
// arbitrary function, or a majority-vote crowd of error-prone paid workers:
//
//	res, err := joininference.Run(ctx, session, joininference.HonestOracle(goal))
//
// For crowdsourcing, NextQuestions(ctx, k) returns up to k questions that
// are pairwise informative — answering any one leaves the others worth
// asking — so a whole batch dispatches to workers in parallel and
// AnswerBatch folds the responses back in. NewSemijoinSession runs the same
// loop for semijoin inference (Section 6), where every step is NP-hard by
// design.
//
// Subpackages under internal implement the substrates: T-class collection,
// strategies (BU/TD/L1S/L2S/optimal), the TPC-H and synthetic workload
// generators, the experiment harness for the paper's figures, and the
// semijoin NP-completeness machinery (Section 6).
package joininference

import (
	"fmt"
	"io"
	"os"

	"repro/internal/predicate"
	"repro/internal/product"
	"repro/internal/relation"
	"repro/internal/sample"
)

// Re-exported substrate types: the public API speaks in terms of these.
type (
	// Relation is a named table of string-valued tuples.
	Relation = relation.Relation
	// Schema names a relation and its attributes.
	Schema = relation.Schema
	// Tuple is one row.
	Tuple = relation.Tuple
	// Instance is the pair of relations inference runs over.
	Instance = relation.Instance
	// Pred is a join predicate: a set of attribute pairs.
	Pred = predicate.Pred
	// Universe is the attribute-pair universe Ω of an instance.
	Universe = predicate.Universe
	// Label marks an example positive or negative.
	Label = sample.Label
)

// Label values.
const (
	Positive = sample.Positive
	Negative = sample.Negative
)

// StrategyID selects a built-in questioning strategy (see WithStrategy).
type StrategyID string

// The strategies of Section 4.
const (
	// StrategyBU walks the predicate lattice bottom-up (Algorithm 2).
	StrategyBU StrategyID = "BU"
	// StrategyTD walks it top-down until a positive arrives (Algorithm 3).
	StrategyTD StrategyID = "TD"
	// StrategyL1S maximizes one-step entropy (Algorithm 4).
	StrategyL1S StrategyID = "L1S"
	// StrategyL2S maximizes two-step entropy (Algorithms 5–6).
	StrategyL2S StrategyID = "L2S"
	// StrategyRND asks a random informative tuple (baseline); seed it with
	// WithSeed.
	StrategyRND StrategyID = "RND"
)

// KnownStrategies returns the built-in strategy ids, in the paper's order;
// useful for UIs and services validating or listing strategies.
func KnownStrategies() []StrategyID {
	return []StrategyID{StrategyBU, StrategyTD, StrategyL1S, StrategyL2S, StrategyRND}
}

// NewSchema builds a schema, validating attribute names.
func NewSchema(name string, attrs ...string) (*Schema, error) {
	return relation.NewSchema(name, attrs...)
}

// NewRelation returns an empty relation over the schema.
func NewRelation(s *Schema) *Relation { return relation.NewRelation(s) }

// NewInstance pairs two relations with disjoint attribute sets.
func NewInstance(r, p *Relation) (*Instance, error) { return relation.NewInstance(r, p) }

// ReadCSV loads a relation from CSV (header row = attribute names).
func ReadCSV(name string, src io.Reader) (*Relation, error) { return relation.ReadCSV(name, src) }

// LoadCSV loads two CSV files and pairs them into an instance; relation
// names are derived from the file names.
func LoadCSV(rPath, pPath string) (*Instance, error) {
	load := func(path string) (*Relation, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("joininference: %w", err)
		}
		defer f.Close()
		return relation.ReadCSV(baseName(path), f)
	}
	r, err := load(rPath)
	if err != nil {
		return nil, err
	}
	p, err := load(pPath)
	if err != nil {
		return nil, err
	}
	return relation.NewInstance(r, p)
}

func baseName(path string) string {
	base := path
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == '\\' {
			base = path[i+1:]
			break
		}
	}
	for i := len(base) - 1; i >= 0; i-- {
		if base[i] == '.' {
			return base[:i]
		}
	}
	return base
}

// PredFromNames builds a predicate from attribute-name pairs, e.g.
// {{"To", "City"}}.
func PredFromNames(u *Universe, pairs ...[2]string) (Pred, error) {
	return predicate.FromNames(u, pairs...)
}

// JoinRatio computes the paper's instance-complexity measure (Section 5.3).
func JoinRatio(inst *Instance) float64 {
	u := predicate.NewUniverse(inst)
	return product.JoinRatio(product.ClassesIndexed(inst, u))
}

// Join materializes R ⋈θ P as index pairs (for small instances/demos).
func Join(inst *Instance, theta Pred) [][2]int {
	u := predicate.NewUniverse(inst)
	return predicate.Join(inst, u, theta)
}
