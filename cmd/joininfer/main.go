// Command joininfer interactively infers a join predicate between two CSV
// files by asking Yes/No membership questions on stdin, the scenario of the
// paper's introduction.
//
// Usage:
//
//	joininfer [-strategy TD] [-max 0] [-sql] [-snapshot out.json] r.csv p.csv
//	joininfer -simulate "R.A = P.B AND R.C = P.D" r.csv p.csv
//
// Answer each question with y (the pair belongs to your join), n (it does
// not), or q to stop early and accept the current best predicate. With
// -simulate the questions are answered automatically according to the
// given goal predicate — useful for demos and for measuring how many
// questions a workload needs. With -snapshot the session is written, at
// the end, as a JSON snapshot (Session.Snapshot, Snapshot.Encode): the
// answers plus the strategy, seed and budget, so the library's
// DecodeSnapshot and ResumeSession pick it up exactly where it stopped.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	joininference "repro"
)

func main() {
	strategyFlag := flag.String("strategy", "TD", "questioning strategy: BU, TD, L1S, L2S or RND")
	parallelFlag := flag.Int("parallel", 1, "goroutines per lookahead question (L1S/L2S candidate evaluation); -1 = all CPUs; the questions asked are identical at any value")
	maxFlag := flag.Int("max", 0, "maximum number of questions (0 = until fully determined)")
	simulate := flag.String("simulate", "", "answer automatically according to this goal predicate (e.g. \"R.A = P.B\")")
	sqlFlag := flag.Bool("sql", false, "additionally print the inferred predicate as SQL")
	snapshotFlag := flag.String("snapshot", "", "write the session as a resumable JSON snapshot to this file")
	seedFlag := flag.Int64("seed", 1, "seed for the RND strategy")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: joininfer [flags] R.csv P.csv\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	opts := options{
		strategy: joininference.StrategyID(*strategyFlag),
		parallel: *parallelFlag,
		max:      *maxFlag,
		simulate: *simulate,
		sql:      *sqlFlag,
		snapshot: *snapshotFlag,
		seed:     *seedFlag,
	}
	if err := run(flag.Arg(0), flag.Arg(1), opts); err != nil {
		fmt.Fprintln(os.Stderr, "joininfer:", err)
		os.Exit(1)
	}
}

type options struct {
	strategy joininference.StrategyID
	parallel int
	max      int
	simulate string
	sql      bool
	snapshot string
	seed     int64
}

func run(rPath, pPath string, opts options) error {
	inst, err := joininference.LoadCSV(rPath, pPath)
	if err != nil {
		return err
	}
	s := joininference.NewSession(inst,
		joininference.WithStrategy(opts.strategy),
		joininference.WithBudget(opts.max),
		joininference.WithSeed(opts.seed),
		joininference.WithParallelism(opts.parallel))

	var oracle joininference.Oracle
	simulated := opts.simulate != ""
	if simulated {
		goal, err := joininference.ParsePredicate(s.Universe(), opts.simulate)
		if err != nil {
			return err
		}
		oracle = joininference.HonestOracle(goal)
	}
	fmt.Printf("Loaded %s (%d rows) and %s (%d rows): %d candidate pairs, %d equivalence classes.\n",
		inst.R.Schema.Name, inst.R.Len(), inst.P.Schema.Name, inst.P.Len(),
		inst.ProductSize(), s.Classes())
	if !simulated {
		fmt.Println("Label each proposed pair: y = belongs to your join, n = does not, q = stop.")
	}

	ctx := context.Background()
	in := bufio.NewScanner(os.Stdin)
	for {
		qs, err := s.NextQuestions(ctx, 1)
		if errors.Is(err, joininference.ErrBudgetExhausted) {
			fmt.Printf("Question budget (%d) reached.\n", opts.max)
			break
		}
		if err != nil {
			return err
		}
		if len(qs) == 0 {
			break
		}
		q := qs[0]
		var label joininference.Label
		if simulated {
			label, err = oracle.Label(ctx, q)
			if err != nil {
				return err
			}
			fmt.Printf("Q%d) %v × %v → %v\n", s.Questions()+1, q.RTuple, q.PTuple, label)
		} else {
			fmt.Printf("\nQ%d) Pair these rows?\n", s.Questions()+1)
			printTuple(inst.R.Schema.Attributes, q.RTuple)
			printTuple(inst.P.Schema.Attributes, q.PTuple)
			if q.EquivalentTuples > 1 {
				fmt.Printf("    (decides %d equivalent pairs)\n", q.EquivalentTuples)
			}
			var stop bool
			label, stop, err = readAnswer(in)
			if err != nil {
				return err
			}
			if stop {
				break
			}
		}
		if err := s.Answer(q, label); err != nil {
			if errors.Is(err, joininference.ErrInconsistent) {
				return fmt.Errorf("your answers are contradictory: %w", err)
			}
			return err
		}
	}

	theta := s.Inferred()
	fmt.Printf("\nInferred after %d question(s):\n  %s\n", s.Questions(), theta.Format(s.Universe()))
	pairs := joininference.Join(inst, theta)
	fmt.Printf("It selects %d of the %d candidate pairs.\n", len(pairs), inst.ProductSize())
	if opts.sql {
		fmt.Println("\nSQL:")
		fmt.Println(joininference.SQL(s.Universe(), theta, false, true))
	}
	if opts.snapshot != "" {
		snap, err := s.Snapshot()
		if err != nil {
			return err
		}
		f, err := os.Create(opts.snapshot)
		if err != nil {
			return err
		}
		if err := snap.Encode(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("Snapshot written to %s (%d answers).\n", opts.snapshot, s.Questions())
	}
	return nil
}

func readAnswer(in *bufio.Scanner) (joininference.Label, bool, error) {
	for {
		fmt.Print("  [y/n/q] > ")
		if !in.Scan() {
			if err := in.Err(); err != nil {
				return joininference.Negative, true, err
			}
			return joininference.Negative, true, nil // EOF: stop
		}
		switch strings.ToLower(strings.TrimSpace(in.Text())) {
		case "y", "yes":
			return joininference.Positive, false, nil
		case "n", "no":
			return joininference.Negative, false, nil
		case "q", "quit":
			return joininference.Negative, true, nil
		default:
			fmt.Println("  please answer y, n or q")
		}
	}
}

func printTuple(attrs []string, t joininference.Tuple) {
	var parts []string
	for i, a := range attrs {
		parts = append(parts, fmt.Sprintf("%s=%s", a, t[i]))
	}
	fmt.Printf("    %s\n", strings.Join(parts, "  "))
}
