package joininference

import (
	"errors"
	"fmt"

	"repro/internal/inference"
	"repro/internal/predicate"
	"repro/internal/querytext"
	"repro/internal/semijoin"
)

// TranscriptEntry records one answered question, addressed by row indexes
// so a transcript replays against the same instance. Semijoin entries carry
// PIndex -1.
type TranscriptEntry struct {
	RIndex   int  `json:"r"`
	PIndex   int  `json:"p"`
	Positive bool `json:"positive"`
}

// Transcript returns the answered questions in order.
func (s *Session) Transcript() []TranscriptEntry {
	if s.sj != nil {
		return append([]TranscriptEntry(nil), s.sj.entries...)
	}
	var out []TranscriptEntry
	for _, ex := range s.engine.Sample().Examples() {
		out = append(out, TranscriptEntry{
			RIndex:   ex.RI,
			PIndex:   ex.PI,
			Positive: bool(ex.Label),
		})
	}
	return out
}

// replay rebuilds the session's state from entries — the answers, in
// order — without touching the session; install swaps the rebuilt state
// in. Session state is a pure function of the answers, and this is the one
// place each mode turns answers into state: the inconsistent-answer
// rollback, Undo, ResumeSession and the soft repair trials all come
// through here. Installing drops the join strategy so nothing retains the
// replaced engine; rngMark is the caller's to adjust.
func (s *Session) replay(entries []TranscriptEntry) (install func(), err error) {
	if s.sj != nil {
		st, err := s.replaySemijoin(s.inst, s.sj.solver, entries)
		if err != nil {
			return nil, err
		}
		return func() { s.sj, s.asked = st, len(st.entries) }, nil
	}
	e, err := s.replayJoin(entries)
	if err != nil {
		return nil, err
	}
	return func() {
		s.engine, s.asked = e, e.Sample().Len()
		s.strat, s.stratErr = nil, nil
	}, nil
}

// replayJoin replays entries into a fresh engine over the session's
// T-classes. Every failure names the entry and wraps ErrBadTranscript:
// rows outside the instance, semijoin entries, tuples without a class, or
// a class labeled twice (a live session never labels a decided class, so
// a repeat means corruption). Labels that no predicate satisfies
// additionally wrap ErrInconsistent.
func (s *Session) replayJoin(entries []TranscriptEntry) (*inference.Engine, error) {
	inst := s.engine.Inst
	e := inference.New(inst, inference.WithClasses(s.engine.Classes()))
	for i, en := range entries {
		if en.PIndex < 0 {
			return nil, badEntry(i, "semijoin entry (row %d) in a join replay", en.RIndex)
		}
		if en.RIndex < 0 || en.RIndex >= inst.R.Len() || en.PIndex >= inst.P.Len() {
			return nil, badEntry(i, "tuple (%d,%d) outside the %d×%d product",
				en.RIndex, en.PIndex, inst.R.Len(), inst.P.Len())
		}
		ci := s.classIndexFor(en.RIndex, en.PIndex)
		if ci < 0 {
			return nil, badEntry(i, "no class for tuple (%d,%d)", en.RIndex, en.PIndex)
		}
		if e.IsLabeled(ci) {
			return nil, badEntry(i, "class of tuple (%d,%d) already labeled", en.RIndex, en.PIndex)
		}
		if err := e.Label(ci, Label(en.Positive)); err != nil {
			if errors.Is(err, inference.ErrInconsistent) {
				err = ErrInconsistent // the public sentinel, as Answer returns it
			}
			return nil, fmt.Errorf("%w: entry %d: %w", ErrBadTranscript, i+1, err)
		}
	}
	return e, nil
}

// replaySemijoin is replayJoin's semijoin counterpart: it builds the
// labeled sample over inst, decided by solver (ApplyUpdate passes the new
// version and a fresh solver; Explain's drop-one probes read the witness
// without installing). The CONS⋉ decision runs once, on the whole sample:
// consistency is monotone in the sample, so that equals checking every
// prefix. Failures wrap ErrBadTranscript, inconsistent labels additionally
// ErrInconsistent.
func (s *Session) replaySemijoin(inst *Instance, solver *semijoin.Solver, entries []TranscriptEntry) (*semijoinState, error) {
	st := &semijoinState{u: s.sj.u, solver: solver, labeled: make([]bool, inst.R.Len())}
	for i, e := range entries {
		switch {
		case e.PIndex >= 0:
			return nil, badEntry(i, "join entry (%d,%d) in a semijoin replay", e.RIndex, e.PIndex)
		case e.RIndex < 0 || e.RIndex >= inst.R.Len():
			return nil, badEntry(i, "row %d of R out of range [0,%d)", e.RIndex, inst.R.Len())
		case st.labeled[e.RIndex]:
			return nil, badEntry(i, "row %d already labeled", e.RIndex)
		}
		if e.Positive {
			st.sample.Pos = append(st.sample.Pos, e.RIndex)
		} else {
			st.sample.Neg = append(st.sample.Neg, e.RIndex)
		}
		st.labeled[e.RIndex] = true
		st.entries = append(st.entries, e)
	}
	theta, ok, err := solver.Consistent(st.sample)
	if err != nil {
		return nil, fmt.Errorf("joininference: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("%w: %w", ErrBadTranscript, ErrInconsistent)
	}
	st.current = theta
	return st, nil
}

// badEntry reports transcript entry i (0-based) as unusable.
func badEntry(i int, format string, args ...any) error {
	return fmt.Errorf("%w: entry %d: %s", ErrBadTranscript, i+1, fmt.Sprintf(format, args...))
}

// classIndexFor finds the T-class of a product tuple through a map from
// T-class predicate key to index, built once per session — so replay
// stays linear in the number of answers.
func (s *Session) classIndexFor(ri, pi int) int {
	if s.classIdx == nil {
		cs := s.engine.Classes()
		s.classIdx = make(map[string]int, len(cs))
		for ci, c := range cs {
			s.classIdx[c.Theta.Key()] = ci
		}
	}
	theta := predicate.T(s.engine.U, s.engine.Inst.R.Tuples[ri], s.engine.Inst.P.Tuples[pi])
	ci, ok := s.classIdx[theta.Key()]
	if !ok {
		return -1
	}
	return ci
}

// ParsePredicate parses a textual predicate such as
// "Flight.To = Hotel.City AND Flight.Airline = Hotel.Discount" (or "TRUE"
// for the empty conjunction) over the universe's schemas.
func ParsePredicate(u *Universe, input string) (Pred, error) {
	return querytext.ParsePredicate(u, input)
}

// SQL renders a predicate as a runnable SQL join (or semijoin) over the
// instance's relations.
func SQL(u *Universe, p Pred, semijoin, pretty bool) string {
	return querytext.SQL(u, p, querytext.SQLOptions{Semijoin: semijoin, Pretty: pretty})
}
