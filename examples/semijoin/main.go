// Semijoin: demonstrate Section 6 — consistency checking for semijoin
// predicates is NP-complete. The example (1) solves a small semijoin
// consistency instance through the public API, (2) runs the interactive
// semijoin heuristic through the same Run/Oracle surface as join
// inference, and (3) encodes a 3SAT formula as a CONS⋉ instance via the
// Appendix A.1 reduction and solves it both ways, showing the round trip
// formula → database → predicate → satisfying valuation.
//
// Run with:
//
//	go run ./examples/semijoin
package main

import (
	"context"
	"fmt"
	"log"

	joininference "repro"
	"repro/internal/paperdata"
	"repro/internal/semijoin"
)

func main() {
	// Part 1: the Section 6 example on the Example 2.1 instance.
	inst := paperdata.Example21()
	u := joininference.NewSemijoinSession(inst).Universe()
	s := joininference.SemijoinSample{Keep: []int{0, 1}, Drop: []int{2}} // S'+ = {t1,t2}, S'− = {t3}

	theta, ok, err := joininference.SemijoinConsistent(inst, s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Semijoin sample over Example 2.1: t1,t2 must be kept, t3 dropped.")
	if ok {
		fmt.Printf("Consistent — witness predicate: %s\n", theta.Format(u))
		fmt.Printf("R ⋉θ P selects R-tuples %v\n\n", joininference.SemijoinEval(inst, theta))
	} else {
		fmt.Println("Inconsistent.")
	}

	// Part 2: interactive semijoin inference through the unified session
	// API — the same Run/Oracle loop as join inference, but every
	// informativeness test pays the NP-complete CONS⋉ price.
	goal, err := joininference.PredFromNames(u, [2]string{"A1", "B2"})
	if err != nil {
		log.Fatal(err)
	}
	session := joininference.NewSemijoinSession(inst)
	res, err := joininference.Run(context.Background(), session, joininference.HonestOracle(goal))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Interactive semijoin inference of %s: %d questions, inferred %s (keeps rows %v)\n\n",
		goal.Format(u), res.Questions, res.Inferred.Format(u),
		joininference.SemijoinEval(inst, res.Inferred))

	// Part 3: the NP-hardness reduction on the appendix formula
	// ϕ0 = (x1 ∨ x2 ∨ ¬x3) ∧ (¬x1 ∨ x3 ∨ x4).
	phi := semijoin.Formula{NumVars: 4, Clauses: []semijoin.Clause{
		{1, 2, -3},
		{-1, 3, 4},
	}}
	red, err := semijoin.Reduce(phi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Reduced ϕ0 to a CONS⋉ instance: R has %d rows × %d attrs, P has %d rows × %d attrs, Ω has %d pairs.\n",
		red.Instance.R.Len(), red.Instance.R.Schema.Arity(),
		red.Instance.P.Len(), red.Instance.P.Schema.Arity(), red.U.Size())

	thetaPhi, consistent, err := semijoin.NewSolver(red.Instance).Consistent(red.Sample)
	if err != nil {
		log.Fatal(err)
	}
	assign, sat := phi.Solve()
	fmt.Printf("CONS⋉ says consistent=%v; DPLL says satisfiable=%v\n", consistent, sat)
	if consistent {
		v := red.DecodeValuation(thetaPhi)
		fmt.Printf("Valuation decoded from the predicate: x1=%v x2=%v x3=%v x4=%v (satisfies ϕ0: %v)\n",
			v[1], v[2], v[3], v[4], phi.Satisfies(v))
	}
	if sat {
		enc, err := red.EncodeValuation(assign)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Predicate encoded from DPLL's model has %d pairs and is consistent with the sample.\n",
			enc.Size())
	}
}
