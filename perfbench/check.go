package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	joininference "repro"
)

// reference is the in-process run of one (instance version, strategy,
// goal, k) session shape: its question count and how long its live
// strategy compute took.
type reference struct {
	questions int
	elapsed   time.Duration
	err       error
}

// checker verifies what the server answered against in-process runs on
// the load generator's own copies of the instances.
type checker struct {
	mu    sync.Mutex
	refs  map[string]*reference
	pairs map[string]string
}

func newChecker() *checker {
	return &checker{refs: map[string]*reference{}, pairs: map[string]string{}}
}

// runReference drives a fresh in-process session of the shape with
// HonestOracle exactly as the crowd client drives the server: k = 1 is
// joininference.Run; larger k fetches NextQuestions(k) and answers every
// question still informative, as Manager.Answer does.
func runReference(spec sessionSpec, ver *version) *reference {
	opts := []joininference.Option{joininference.WithStrategy(spec.strategy)}
	var s *joininference.Session
	if spec.semijoin {
		s = joininference.NewSemijoinSession(ver.inst, opts...)
	} else {
		s = joininference.NewSession(ver.inst, append(opts, joininference.WithPrecomputedClasses(ver.cs))...)
	}
	oracle := joininference.HonestOracle(spec.inst.goals[spec.goal])
	ctx := context.Background()
	start := time.Now()
	if spec.k == 1 {
		res, err := joininference.Run(ctx, s, oracle)
		return &reference{questions: res.Questions, elapsed: time.Since(start), err: err}
	}
	for {
		qs, err := s.NextQuestions(ctx, spec.k)
		if err != nil {
			return &reference{err: err}
		}
		if len(qs) == 0 {
			return &reference{questions: s.Questions(), elapsed: time.Since(start)}
		}
		for _, q := range qs {
			if !s.IsInformative(q) {
				continue
			}
			l, err := oracle.Label(ctx, q)
			if err == nil {
				err = s.Answer(q, l)
			}
			if err != nil {
				return &reference{err: err}
			}
		}
	}
}

// references computes the reference runs of every (shape, version) the
// sessions need, on workers goroutines.
func (c *checker) references(sessions []*crowdSession, workers int) {
	type job struct {
		key  string
		spec sessionSpec
		ver  *version
	}
	var jobs []job
	seen := map[string]bool{}
	for _, s := range sessions {
		if s.predicate == "" || s.vCreate != s.vHi {
			continue
		}
		key := fmt.Sprintf("%s@%d", s.spec.key(), s.vHi)
		if !seen[key] {
			seen[key] = true
			jobs = append(jobs, job{key, s.spec, s.spec.inst.at(s.vHi)})
		}
	}
	ch := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				r := runReference(j.spec, j.ver)
				c.mu.Lock()
				c.refs[j.key] = r
				c.mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
}

// selection renders the pairs (join) or rows (semijoin) a predicate
// selects on a version, memoized.
func (c *checker) selection(ver *version, semijoin bool, p joininference.Pred, name string) string {
	key := fmt.Sprintf("%s@%d|%v|%s", name, ver.v, semijoin, p.Key())
	if sel, ok := c.pairs[key]; ok {
		return sel
	}
	var b strings.Builder
	if semijoin {
		for _, r := range joininference.SemijoinEval(ver.inst, p) {
			fmt.Fprintf(&b, "%d,", r)
		}
	} else {
		for _, rp := range joininference.Join(ver.inst, p) {
			fmt.Fprintf(&b, "%d:%d,", rp[0], rp[1])
		}
	}
	c.pairs[key] = b.String()
	return c.pairs[key]
}

// check verifies one converged session: its predicate selects the same
// pairs (rows, for semijoin) as its goal on a version it can have
// converged at, and — when no delta landed while it ran — its question
// count equals the in-process reference run's.
func (c *checker) check(s *crowdSession) error {
	in := s.spec.inst
	goal := in.goals[s.spec.goal]
	matched := false
	for v := s.vLo; v <= s.vHi && !matched; v++ {
		ver := in.at(v)
		if ver == nil {
			continue
		}
		u := joininference.NewSession(ver.inst, joininference.WithPrecomputedClasses(ver.cs)).Universe()
		p, err := parseServed(u, s.predicate)
		if err != nil {
			return fmt.Errorf("session %s (%s): predicate %q: %w", s.id, s.spec.key(), s.predicate, err)
		}
		matched = c.selection(ver, s.spec.semijoin, p, in.name) == c.selection(ver, s.spec.semijoin, goal, in.name)
	}
	if !matched {
		return fmt.Errorf("session %s (%s): predicate %q does not select the goal's pairs at versions %d..%d",
			s.id, s.spec.key(), s.predicate, s.vLo, s.vHi)
	}
	if s.vCreate != s.vHi {
		return nil
	}
	r := c.refs[fmt.Sprintf("%s@%d", s.spec.key(), s.vHi)]
	switch {
	case r == nil:
		return fmt.Errorf("session %s (%s): no reference run", s.id, s.spec.key())
	case r.err != nil:
		return fmt.Errorf("session %s (%s): reference run: %w", s.id, s.spec.key(), r.err)
	case r.questions != s.asked:
		return fmt.Errorf("session %s (%s): server asked %d questions, in-process run %d",
			s.id, s.spec.key(), s.asked, r.questions)
	}
	return nil
}

// emptyPredicateText is how GET /sessions/{id}/predicate renders the empty
// conjunction (Pred.Format); ParsePredicate spells it "TRUE", so the
// client translates before parsing.
const emptyPredicateText = "⊤ (empty predicate)"

func parseServed(u *joininference.Universe, text string) (joininference.Pred, error) {
	if text == emptyPredicateText {
		text = "TRUE"
	}
	return joininference.ParsePredicate(u, text)
}

// liveCost sums in-process reference compute by strategy: microseconds per
// question of a live (uncached) run, the figure a cache hit competes with.
func (c *checker) liveCost() map[string]float64 {
	type acc struct {
		nanos int64
		q     int
	}
	by := map[string]*acc{}
	for key, r := range c.refs {
		if r.err != nil || r.questions == 0 {
			continue
		}
		parts := strings.Split(key, "|")
		st := strings.ToLower(parts[1])
		if st == "⋉" {
			st = "semijoin"
		}
		a := by[st]
		if a == nil {
			a = &acc{}
			by[st] = a
		}
		a.nanos += int64(r.elapsed)
		a.q += r.questions
	}
	out := map[string]float64{}
	for st, a := range by {
		out[st] = float64(a.nanos) / 1e3 / float64(a.q)
	}
	return out
}

// verify checks every session of a run and returns the failures, sorted.
func (c *checker) verify(sessions []*crowdSession, workers int) []string {
	c.references(sessions, workers)
	var bad []string
	for _, s := range sessions {
		if s.predicate == "" {
			continue
		}
		if err := c.check(s); err != nil {
			bad = append(bad, err.Error())
		}
	}
	sort.Strings(bad)
	return bad
}
