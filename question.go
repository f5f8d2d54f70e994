package joininference

import (
	"encoding/json"
	"fmt"
)

// QuestionRef is the stable wire form of a Question: the row indexes that
// identify it within its instance, independent of the unexported session
// state a live Question carries. Refs are what snapshots, transcripts and
// remote transports (e.g. an HTTP server handing questions to crowd
// workers) exchange; Session.QuestionByRef rehydrates a ref into a live
// Question on the owning session.
type QuestionRef struct {
	// RIndex is the row of R being asked about.
	RIndex int `json:"r"`
	// PIndex is the row of P, or -1 for a semijoin question.
	PIndex int `json:"p"`
}

// Semijoin reports whether the ref names a semijoin question.
func (r QuestionRef) Semijoin() bool { return r.PIndex < 0 }

// Ref returns the question's stable wire form.
func (q Question) Ref() QuestionRef { return QuestionRef{RIndex: q.RIndex, PIndex: q.PIndex} }

// questionWire is the JSON shape of a Question: the ref plus the row
// values a human (or crowd UI) needs to answer it. The unexported session
// plumbing never crosses the wire.
type questionWire struct {
	RIndex           int      `json:"r"`
	PIndex           int      `json:"p"`
	RTuple           Tuple    `json:"r_tuple"`
	PTuple           Tuple    `json:"p_tuple,omitempty"`
	EquivalentTuples int64    `json:"equivalent_tuples"`
	Semijoin         bool     `json:"semijoin,omitempty"`
	RAttrs           []string `json:"r_attrs,omitempty"`
	PAttrs           []string `json:"p_attrs,omitempty"`
}

// MarshalJSON renders the question's wire form: indexes, row values,
// attribute names and the number of product tuples the answer decides.
// Questions do not unmarshal — a consumer sends back the (r, p) ref and the
// owning session rehydrates it with QuestionByRef.
func (q Question) MarshalJSON() ([]byte, error) {
	w := questionWire{
		RIndex:           q.RIndex,
		PIndex:           q.PIndex,
		RTuple:           q.RTuple,
		PTuple:           q.PTuple,
		EquivalentTuples: q.EquivalentTuples,
		Semijoin:         q.Semijoin(),
	}
	if q.inst != nil {
		w.RAttrs = q.inst.R.Schema.Attributes
		w.PAttrs = q.inst.P.Schema.Attributes
	}
	return json.Marshal(w)
}

// QuestionByRef rehydrates a QuestionRef into a live Question on this
// session, validating the indexes against the instance. For join sessions
// the ref must name a product tuple (PIndex ≥ 0) whose T-class exists; for
// semijoin sessions it must name a row of R with PIndex -1. A ref to a
// semijoin row, or a join tuple and its whole T-class, that a delta deleted
// fails with an error wrapping ErrStaleVersion; labels are per class, so a
// deleted join tuple whose class survives still resolves. Anything else
// fails with an error wrapping ErrBadQuestionRef. The returned Question is
// answerable with Answer exactly like one from NextQuestions.
func (s *Session) QuestionByRef(ref QuestionRef) (Question, error) {
	if s.sj != nil {
		if !ref.Semijoin() {
			return Question{}, fmt.Errorf("%w: (%d,%d) is a join question but this is a semijoin session", ErrBadQuestionRef, ref.RIndex, ref.PIndex)
		}
		if ref.RIndex < 0 || ref.RIndex >= s.inst.R.Len() {
			return Question{}, fmt.Errorf("%w: row %d out of range [0,%d)", ErrBadQuestionRef, ref.RIndex, s.inst.R.Len())
		}
		q := s.semijoinQuestion(ref.RIndex)
		if _, err := s.semijoinRow(q); err != nil {
			return Question{}, err // a row a delta deleted: ErrStaleVersion
		}
		return q, nil
	}
	if ref.Semijoin() {
		return Question{}, fmt.Errorf("%w: row %d is a semijoin question but this is a join session", ErrBadQuestionRef, ref.RIndex)
	}
	if ref.RIndex < 0 || ref.RIndex >= s.inst.R.Len() || ref.PIndex < 0 || ref.PIndex >= s.inst.P.Len() {
		return Question{}, fmt.Errorf("%w: (%d,%d) out of range (%d×%d product)",
			ErrBadQuestionRef, ref.RIndex, ref.PIndex, s.inst.R.Len(), s.inst.P.Len())
	}
	ci := s.classIndexFor(ref.RIndex, ref.PIndex)
	if ci < 0 && (!s.inst.RAlive(ref.RIndex) || !s.inst.PAlive(ref.PIndex)) {
		return Question{}, fmt.Errorf("joininference: tuple (%d,%d) and its T-class were deleted by version %d: %w",
			ref.RIndex, ref.PIndex, s.inst.Version(), ErrStaleVersion)
	}
	if ci < 0 {
		return Question{}, fmt.Errorf("%w: (%d,%d) has no T-class in this instance", ErrBadQuestionRef, ref.RIndex, ref.PIndex)
	}
	q := s.question(ci)
	// Preserve the exact rows the ref named: the class representative may be
	// a different, interchangeable product tuple.
	q.RTuple, q.PTuple = s.inst.R.Tuples[ref.RIndex], s.inst.P.Tuples[ref.PIndex]
	q.RIndex, q.PIndex = ref.RIndex, ref.PIndex
	return q, nil
}
