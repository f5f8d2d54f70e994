package joininference

import (
	"fmt"
	"math/big"

	"repro/internal/inference"
	"repro/internal/strategy"
	"repro/internal/versionspace"
)

// Progress summarizes how far a session has converged.
type Progress struct {
	// Candidates is the number of join predicates still consistent with
	// the answers (nil in the astronomically unlikely case it cannot be
	// counted). When the session is Done, all remaining candidates are
	// instance-equivalent.
	Candidates *big.Int
	// RemainingQuestions is the number of informative classes left — the
	// worst-case number of further questions.
	RemainingQuestions int
	// TotalClasses and Answered mirror Classes() and Questions().
	TotalClasses int
	Answered     int
}

// Progress reports the session's convergence state; useful for showing the
// user "N candidate queries remain" between questions. For semijoin
// sessions (whose version space has no tractable description) only
// Answered is populated.
func (s *Session) Progress() Progress {
	if s.sj != nil {
		return Progress{Answered: s.asked}
	}
	p := versionspace.Describe(s.engine)
	return Progress{
		Candidates:         p.Candidates,
		RemainingQuestions: p.InformativeClasses,
		TotalClasses:       p.TotalClasses,
		Answered:           p.Labeled,
	}
}

// Candidates enumerates the predicates still consistent with the answers,
// most general first, provided |T(S+)| ≤ maxBits (the enumeration is
// 2^|T(S+)|); it returns nil when the space is too large — check
// Progress().Candidates first.
func (s *Session) Candidates(maxBits int) []Pred {
	if s.sj != nil {
		return nil
	}
	return versionspace.Enumerate(s.engine, maxBits)
}

// Explanation tells the user why a question is worth asking.
type Explanation struct {
	// DecidedIfYes / DecidedIfNo count the product tuples whose membership
	// each answer settles immediately (beyond the asked tuples themselves).
	DecidedIfYes, DecidedIfNo int64
	// CandidatesIfYes / CandidatesIfNo count the join predicates that
	// would remain consistent after each answer (nil if uncountable).
	CandidatesIfYes, CandidatesIfNo *big.Int
}

// ExplainQuestion computes the impact of both possible answers to a
// question, without recording anything. (Session.Explain attributes the
// inferred predicate to the answers already committed.)
func (s *Session) ExplainQuestion(q Question) Explanation {
	if s.sj != nil || q.classIndex < 0 || q.classIndex >= len(s.engine.Classes()) {
		return Explanation{}
	}
	theta := s.engine.Classes()[q.classIndex].Theta
	tpos := s.engine.TPos()
	negs := s.engine.Negatives()

	return Explanation{
		CandidatesIfYes: strategy.CountConsistent(tpos.Intersect(theta), negs),
		CandidatesIfNo: strategy.CountConsistent(tpos,
			append(append([]Pred(nil), negs...), theta)),
		DecidedIfYes: countDecided(s.engine, q.classIndex, Positive),
		DecidedIfNo:  countDecided(s.engine, q.classIndex, Negative),
	}
}

// countDecided counts base-informative tuples made certain by labeling the
// class with the given label.
func countDecided(e *inference.Engine, ci int, l Label) int64 {
	theta := e.Classes()[ci].Theta
	tpos := e.TPos()
	negs := e.Negatives()
	if l == Positive {
		tpos = tpos.Intersect(theta)
	} else {
		negs = append(append([]Pred(nil), negs...), theta)
	}
	var sum int64
	for _, cj := range e.InformativeClasses() {
		if cj == ci {
			sum += e.Classes()[cj].Count - 1
			continue
		}
		if inference.CertainUnder(tpos, negs, e.Classes()[cj].Theta) {
			sum += e.Classes()[cj].Count
		}
	}
	return sum
}

// Undo retracts the most recent answer. It rebuilds the sample from the
// transcript, so it costs O(answers) and supports repeated undo back to
// the empty session.
func (s *Session) Undo() error {
	tr := s.Transcript()
	if len(tr) == 0 {
		return fmt.Errorf("joininference: nothing to undo")
	}
	tr = tr[:len(tr)-1]
	if s.sj != nil {
		return s.undoSemijoin(tr)
	}
	if err := s.rebuildJoin(tr); err != nil {
		return err
	}
	// RND restarts its stream from the seed, matching the fresh strategy.
	s.rngMark = 0
	return nil
}

// rebuildJoin replaces the engine with a fresh one replaying the given
// transcript (O(answers)); strategy caches are dropped so nothing retains
// the replaced engine. rngMark is the caller's to adjust: Undo rewinds it,
// the inconsistent-answer rollback keeps it.
func (s *Session) rebuildJoin(tr []TranscriptEntry) error {
	fresh := inference.New(s.engine.Inst, inference.WithClasses(s.engine.Classes()))
	replayed := 0
	for _, e := range tr {
		ci := s.classIndexFor(e.RIndex, e.PIndex)
		if ci < 0 {
			return fmt.Errorf("joininference: internal error: transcript tuple (%d,%d) has no class", e.RIndex, e.PIndex)
		}
		if err := fresh.Label(ci, Label(e.Positive)); err != nil {
			return fmt.Errorf("joininference: internal error replaying transcript: %w", err)
		}
		replayed++
	}
	s.engine = fresh
	s.asked = replayed
	s.strat, s.stratErr = nil, nil
	return nil
}

// undoSemijoin rebuilds the semijoin sample from the truncated transcript.
func (s *Session) undoSemijoin(tr []TranscriptEntry) error {
	// The solver carries over: its witness cache depends only on the
	// instance, never on the sample being rebuilt.
	st := &semijoinState{u: s.sj.u, solver: s.sj.solver, labeled: make([]bool, s.inst.R.Len())}
	for _, e := range tr {
		if e.Positive {
			st.sample.Pos = append(st.sample.Pos, e.RIndex)
		} else {
			st.sample.Neg = append(st.sample.Neg, e.RIndex)
		}
		st.labeled[e.RIndex] = true
		st.entries = append(st.entries, e)
	}
	s.sj = st
	s.asked = len(tr)
	return nil
}
