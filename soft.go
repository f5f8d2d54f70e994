package joininference

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/belief"
	"repro/internal/inference"
	"repro/internal/predicate"
)

// WithSoftInference turns on the error-tolerant soft layer: answers become
// weighted votes accumulating per-class log-odds belief, and a label
// commits to the exact version-space engine only when the net belief
// magnitude reaches threshold. A non-positive threshold means 1 — a single
// unit vote decides, which (with a zero error budget) makes the session's
// question sequence bit-identical to the hard path. Combine with
// WithErrorBudget to absorb and later correct wrong commits instead of
// surfacing ErrInconsistent.
func WithSoftInference(threshold float64) Option {
	return func(c *sessionConfig) {
		c.soft = true
		c.softThreshold = threshold
	}
}

// WithErrorBudget allows up to n committed answers to be retracted over the
// session's lifetime: when a commit contradicts the version space, the
// session searches the committed transcript for a minimal set of answers
// (lowest belief first, violated negatives first) whose removal restores
// consistency, replays the engine without them, and re-opens their
// questions — instead of rejecting the new answer with ErrInconsistent.
// The option implies soft inference (at the default threshold unless
// WithSoftInference also appears). Contradictions beyond the budget fall
// back to the hard path's behavior: the offending answer is rejected, the
// session stays intact.
func WithErrorBudget(n int) Option {
	return func(c *sessionConfig) {
		c.soft = true
		c.errorBudget = n
	}
}

// Vote identifies the provenance of one soft answer: the worker who cast
// it and the weight of their voice (a log-odds reliability estimate;
// non-positive or non-finite weights count as 1 unit vote).
type Vote struct {
	Worker string
	Weight float64
}

// WorkerVote is one recorded vote behind a committed (or retracted)
// answer, reported by SoftEvents and Explain.
type WorkerVote struct {
	Worker   string  `json:"worker,omitempty"`
	Weight   float64 `json:"weight"`
	Positive bool    `json:"positive"`
}

// SoftEventKind labels a SoftEvent.
type SoftEventKind string

const (
	// SoftCommit records a label crossing the belief threshold into the
	// hard engine.
	SoftCommit SoftEventKind = "commit"
	// SoftRetract records a committed label being withdrawn to restore
	// consistency; its question re-opens.
	SoftRetract SoftEventKind = "retract"
)

// SoftEvent is one commit or retraction, with the votes that backed the
// answer — the feedback signal for worker-reliability models (a retracted
// answer's supporters were probably wrong).
type SoftEvent struct {
	Kind     SoftEventKind `json:"kind"`
	Ref      QuestionRef   `json:"ref"`
	Positive bool          `json:"positive"`
	Votes    []WorkerVote  `json:"votes,omitempty"`
}

// maxSoftEvents bounds the undrained event queue so a caller that never
// reads SoftEvents cannot leak memory; the oldest events drop first.
const maxSoftEvents = 1024

// SoftEventAbsorber is implemented by oracles that learn from commit and
// retraction events (ReliabilityOracle does); Run feeds them automatically.
type SoftEventAbsorber interface {
	Absorb(events []SoftEvent)
}

// SoftStats reports the soft layer's state.
type SoftStats struct {
	// Enabled is false for hard sessions (all other fields are zero).
	Enabled bool `json:"enabled"`
	// Threshold and ErrorBudget echo the options (after normalization).
	Threshold   float64 `json:"threshold"`
	ErrorBudget int     `json:"error_budget"`
	// Votes counts every recorded vote; with a budget set, this is the
	// quantity the budget caps.
	Votes int `json:"votes"`
	// Pending counts classes holding votes that have not committed yet.
	Pending int `json:"pending"`
	// Retractions counts committed answers withdrawn so far (budget spent).
	Retractions int `json:"retractions"`
}

// Soft reports whether the session runs the error-tolerant soft layer.
func (s *Session) Soft() bool { return s.soft != nil }

// SoftStats returns the soft layer's counters (zero value for hard
// sessions).
func (s *Session) SoftStats() SoftStats {
	if s.soft == nil {
		return SoftStats{}
	}
	pending := 0
	for _, k := range s.soft.Keys() {
		if b := s.soft.Get(k); b != (belief.Belief{}) && !s.softKeyCommitted(k) {
			pending++
		}
	}
	return SoftStats{
		Enabled:     true,
		Threshold:   s.soft.Threshold,
		ErrorBudget: s.soft.Budget,
		Votes:       s.soft.Votes,
		Pending:     pending,
		Retractions: s.soft.Spent,
	}
}

// softKeyCommitted reports whether key's class (or row) carries a
// committed label.
func (s *Session) softKeyCommitted(key int) bool {
	if s.sj != nil {
		return key >= 0 && key < len(s.sj.labeled) && s.sj.labeled[key]
	}
	return key >= 0 && key < len(s.engine.Classes()) && s.engine.IsLabeled(key)
}

// SoftEvents drains the queued commit/retraction events (oldest first).
func (s *Session) SoftEvents() []SoftEvent {
	evs := s.softEvents
	s.softEvents = nil
	return evs
}

func (s *Session) pushEvent(ev SoftEvent) {
	s.softEvents = append(s.softEvents, ev)
	if over := len(s.softEvents) - maxSoftEvents; over > 0 {
		s.softEvents = append(s.softEvents[:0], s.softEvents[over:]...)
	}
}

// interactions is the quantity WithBudget caps: recorded votes for soft
// sessions (every vote costs money in the crowdsourcing deployment),
// committed answers otherwise.
func (s *Session) interactions() int {
	if s.soft != nil {
		return s.soft.Votes
	}
	return s.asked
}

// softKey maps a question to its belief key (class index for join, row
// index for semijoin) or an error when the question does not belong to
// this session.
func (s *Session) softKey(q Question) (int, error) {
	if s.sj != nil {
		return s.semijoinRow(q)
	}
	if q.classIndex < 0 || q.classIndex >= len(s.engine.Classes()) {
		return 0, fmt.Errorf("joininference: question was not produced by this join session")
	}
	return q.classIndex, nil
}

// AnswerVote records one weighted vote for a question of a soft session
// (WithSoftInference). The vote accumulates into the class's belief; when
// the net belief magnitude reaches the threshold, the majority label
// commits to the exact engine — and a commit contradicting earlier answers
// triggers the error-budget retraction search instead of failing. Returns
// ErrBudgetExhausted when WithBudget's allowance (counted in votes) is
// spent, and ErrInconsistent only when a contradiction cannot be absorbed
// within the error budget (the offending answer is then rejected and its
// belief cleared; the session stays intact, exactly like the hard path).
func (s *Session) AnswerVote(q Question, l Label, v Vote) error {
	if s.soft == nil {
		return fmt.Errorf("joininference: AnswerVote requires WithSoftInference")
	}
	if s.cfg.budget > 0 && s.soft.Votes >= s.cfg.budget {
		return ErrBudgetExhausted
	}
	key, err := s.softKey(q)
	if err != nil {
		return err
	}
	s.soft.Vote(key, bool(l), v.Weight, v.Worker)
	positive, decided := s.soft.Decided(key)
	if !decided {
		return nil
	}
	if s.sj != nil {
		return s.softCommitSemijoin(q, Label(positive))
	}
	return s.softCommitJoin(q, Label(positive))
}

// workerVotes copies the recorded votes behind key into the public form.
func (s *Session) workerVotes(key int) []WorkerVote {
	recs := s.soft.VotesFor(key)
	if len(recs) == 0 {
		return nil
	}
	out := make([]WorkerVote, len(recs))
	for i, r := range recs {
		out[i] = WorkerVote{Worker: r.Worker, Weight: r.Weight, Positive: r.Positive}
	}
	return out
}

// disputedQuestions lists re-verification questions: refs holding votes
// that never committed, on classes (or rows) the committed sample already
// decides — exactly the questions a strategy will never serve again. They
// only exist after a retraction repair (evidence was set aside), and
// re-asking them is how a repair that guessed wrong gets corrected: the
// re-asks grow the disputed side's belief until it either re-commits
// consistently or wins the next contradiction's suspicion ordering.
func (s *Session) disputedQuestions(k int) []Question {
	if s.soft == nil || s.soft.Spent == 0 {
		return nil
	}
	var qs []Question
	if s.sj != nil {
		for _, ri := range s.soft.Keys() {
			if ri < 0 || ri >= len(s.sj.labeled) || s.sj.labeled[ri] || s.soft.Get(ri).Net() == 0 {
				continue
			}
			q := s.semijoinQuestion(ri)
			if s.IsInformative(q) {
				continue // the normal flow re-asks it
			}
			qs = append(qs, q)
			if len(qs) == k {
				break
			}
		}
		return qs
	}
	for _, ci := range s.soft.Keys() {
		if ci < 0 || ci >= len(s.engine.Classes()) || s.engine.IsLabeled(ci) ||
			s.soft.Get(ci).Net() == 0 || s.engine.Informative(ci) {
			continue
		}
		qs = append(qs, s.question(ci))
		if len(qs) == k {
			break
		}
	}
	return qs
}

// softCommitJoin pushes a threshold-clearing label into the hard engine,
// searching for a repair when it contradicts the committed sample.
func (s *Session) softCommitJoin(q Question, l Label) error {
	ci := q.classIndex
	if s.engine.IsLabeled(ci) && s.engine.CertainPositive(ci) == bool(l) {
		return nil // already committed with this label; the extra evidence is absorbed
	}
	newEntry := TranscriptEntry{RIndex: q.RIndex, PIndex: q.PIndex, Positive: bool(l)}
	if err := s.engine.Label(ci, l); err != nil {
		if err == inference.ErrInconsistent {
			committed, rbErr := s.rollbackJoin()
			if rbErr != nil {
				return rbErr
			}
			return s.softRepair(committed, newEntry, ci)
		}
		return fmt.Errorf("joininference: %w", err)
	}
	s.asked++
	s.markRNG()
	s.pushAnswer(SoftCommit, newEntry, ci)
	return nil
}

// softCommitSemijoin is the semijoin counterpart of softCommitJoin. A
// commit flipping the row's own earlier label goes straight to the repair
// search (the row cannot sit on both sides of the sample).
func (s *Session) softCommitSemijoin(q Question, l Label) error {
	ri := q.RIndex
	newEntry := TranscriptEntry{RIndex: ri, PIndex: -1, Positive: bool(l)}
	if s.sj.labeled[ri] {
		if s.semijoinLabelOf(ri) == bool(l) {
			return nil // already committed with this label
		}
		return s.softRepair(s.sj.entries, newEntry, ri)
	}
	ok, err := s.semijoinCommit(ri, l)
	if err != nil {
		return err
	}
	if !ok {
		return s.softRepair(s.sj.entries, newEntry, ri)
	}
	s.pushAnswer(SoftCommit, newEntry, ri)
	return nil
}

// semijoinLabelOf returns the committed label of labeled row ri.
func (s *Session) semijoinLabelOf(ri int) (positive bool) {
	for _, e := range s.sj.entries {
		if e.RIndex == ri {
			return e.Positive
		}
	}
	return false
}

// pushAnswer queues a commit or retraction event for one answer, with the
// votes recorded under its belief key.
func (s *Session) pushAnswer(kind SoftEventKind, e TranscriptEntry, key int) {
	s.pushEvent(SoftEvent{Kind: kind, Ref: QuestionRef{RIndex: e.RIndex, PIndex: e.PIndex},
		Positive: e.Positive, Votes: s.workerVotes(key)})
}

// entryKey returns the belief key of a transcript entry: its class for
// join sessions, its row for semijoin sessions.
func (s *Session) entryKey(e TranscriptEntry) int {
	if s.sj != nil {
		return e.RIndex
	}
	return s.classIndexFor(e.RIndex, e.PIndex)
}

// softRepair is the one retraction search of both modes: it looks for the
// cheapest repair, within the remaining error budget, that makes the
// committed answers plus newEntry consistent — a minimal repair of the
// answer set. The candidates are the committed answers and the new answer
// itself (discarding it), tried one at a time in repairCandidates'
// suspicion order. Only a semijoin flip of a committed row has no discard
// candidate, so only it can need more than one retraction; the search
// then grows a prefix of the order up to the budget. A discarded or
// retracted answer keeps its accumulated votes: its question is disputed,
// NextQuestions re-serves it, and the fresh evidence either re-commits it
// or singles out the actual lie at the next contradiction. When nothing
// within budget helps, the new answer is rejected exactly like the hard
// path.
func (s *Session) softRepair(committed []TranscriptEntry, newEntry TranscriptEntry, newKey int) error {
	if remaining := s.soft.Remaining(); remaining > 0 {
		cands := s.repairCandidates(committed, newEntry, newKey)
		for _, i := range cands {
			if i == len(committed) {
				// Discard: the committed sample stands, nothing commits,
				// and re-asks accumulate on top of the new answer's votes.
				s.soft.Spent++
				s.pushAnswer(SoftRetract, newEntry, newKey)
				return nil
			}
			if ok, err := s.tryRepair(committed, []int{i}, newEntry, newKey); ok || err != nil {
				return err
			}
		}
		for k := 2; k <= remaining && k <= len(cands); k++ {
			if ok, err := s.tryRepair(committed, cands[:k], newEntry, newKey); ok || err != nil {
				return err
			}
		}
	}
	s.soft.Reset(newKey)
	return ErrInconsistent
}

// repairCandidates orders the repair candidates by suspicion: committed
// answers by index, plus len(committed) meaning "discard the new answer" —
// unless the new answer's key is already committed (a semijoin flip shares
// its belief key with the committed entry, and the evidence as a whole now
// favors the new label, so discarding it is never the right repair).
//
// Ascending belief magnitude ranks first: the answer with the least
// evidence behind it is the most likely lie. Join sessions then rank
// negatives the trial T(S+) violates first — the version-space math says
// an inconsistency is always "tpos ⊆ some negative's θ", so one of those
// negatives is lying whenever the positives are honest; semijoin has no
// cheap equivalent, since consistency itself is the NP-complete CONS⋉.
// Last, the most recent answer comes first: an old commit has survived
// every consistency check since it was made, the newest one none. With one
// vote everywhere the first repair is a guess; if it was wrong, the
// disputed question's re-asks grow its belief and the next contradiction
// ranks the actual lie first.
func (s *Session) repairCandidates(committed []TranscriptEntry, newEntry TranscriptEntry, newKey int) []int {
	entries := committed
	if !s.softKeyCommitted(newKey) {
		entries = append(committed[:len(committed):len(committed)], newEntry)
	}
	var tpos Pred // T(S+) of the trial, for join sessions
	if s.sj == nil {
		tpos = predicate.Omega(s.engine.U)
		for _, e := range entries {
			if e.Positive {
				tpos = tpos.Intersect(s.entryTheta(e))
			}
		}
	}
	type cand struct {
		idx      int
		belief   float64
		violated bool
	}
	cands := make([]cand, len(entries))
	for i, e := range entries {
		cands[i] = cand{idx: i, belief: s.soft.Get(s.entryKey(e)).Abs(),
			violated: s.sj == nil && !e.Positive && tpos.MoreGeneralThan(s.entryTheta(e))}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].belief != cands[j].belief {
			return cands[i].belief < cands[j].belief
		}
		if cands[i].violated != cands[j].violated {
			return cands[i].violated
		}
		return cands[i].idx > cands[j].idx
	})
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.idx
	}
	return out
}

// tryRepair replays the committed answers minus the drop indexes plus
// newEntry. When that is consistent it installs the replay, spends one
// unit of budget per retracted answer and emits the retract and commit
// events; the retracted answers keep their beliefs. rngMark is kept, like
// the hard path's rollback: the committed answer count changed but the
// RND stream position of the last draw did not.
func (s *Session) tryRepair(committed []TranscriptEntry, drop []int, newEntry TranscriptEntry, newKey int) (bool, error) {
	install, err := s.replay(append(dropEntries(committed, drop), newEntry))
	if errors.Is(err, ErrBadTranscript) {
		return false, nil // still inconsistent, or the new answer's row is still committed
	}
	if err != nil {
		return false, err
	}
	for _, i := range drop {
		s.soft.Spent++
		s.pushAnswer(SoftRetract, committed[i], s.entryKey(committed[i]))
	}
	install()
	s.pushAnswer(SoftCommit, newEntry, newKey)
	return true, nil
}

// entryTheta returns the most specific predicate of the entry's T-class.
func (s *Session) entryTheta(e TranscriptEntry) Pred {
	return s.engine.Classes()[s.classIndexFor(e.RIndex, e.PIndex)].Theta
}

// dropEntries copies entries, skipping the listed indexes.
func dropEntries(entries []TranscriptEntry, drop []int) []TranscriptEntry {
	skip := make(map[int]bool, len(drop))
	for _, i := range drop {
		skip[i] = true
	}
	out := make([]TranscriptEntry, 0, len(entries)+1)
	for i, e := range entries {
		if !skip[i] {
			out = append(out, e)
		}
	}
	return out
}

// AnswerAttribution scores one committed answer's contribution to the
// inferred predicate (Explain).
type AnswerAttribution struct {
	// Ref addresses the answered question; Positive is the committed label.
	Ref      QuestionRef `json:"ref"`
	Positive bool        `json:"positive"`
	// Score is the Banzhaf-style contribution: the fraction of coalitions
	// of the other answers whose version-space outcome this answer changes
	// (0 = dead weight, 1 = pivotal everywhere). For semijoin sessions it
	// is 1 when Critical, else 0.
	Score float64 `json:"score"`
	// Critical reports whether dropping just this answer changes the
	// outcome given all the others.
	Critical bool `json:"critical"`
	// Workers lists the votes behind the answer (soft sessions only).
	Workers []WorkerVote `json:"workers,omitempty"`
}

// Explain attributes the inferred predicate to the committed answers: a
// Banzhaf-style score per answer ("why did you infer this join?") that
// doubles as a worker-quality signal when votes carry worker ids. Join
// sessions get exact coalition enumeration for up to 13 answers and
// deterministic seeded sampling beyond; semijoin sessions get the drop-one
// criticality test (each probe is a CONS⋉ decision).
func (s *Session) Explain() []AnswerAttribution {
	tr := s.Transcript()
	if len(tr) == 0 {
		return nil
	}
	out := make([]AnswerAttribution, len(tr))
	for i, e := range tr {
		out[i] = AnswerAttribution{Ref: QuestionRef{RIndex: e.RIndex, PIndex: e.PIndex}, Positive: e.Positive}
		if s.soft != nil {
			out[i].Workers = s.workerVotes(s.entryKey(e))
		}
	}
	if s.sj != nil {
		// The session's witness is already the full-sample CONS⋉ decision;
		// each probe decides the sample without one answer.
		for i := range out {
			sub, err := s.replaySemijoin(s.inst, s.sj.solver, dropEntries(tr, []int{i}))
			if errors.Is(err, ErrInconsistent) || (err == nil && !sub.current.Equal(s.sj.current)) {
				out[i].Critical = true
				out[i].Score = 1
			}
		}
		return out
	}
	answers := make([]belief.LabeledPred, len(tr))
	for i, e := range tr {
		answers[i] = belief.LabeledPred{Theta: s.entryTheta(e), Positive: e.Positive}
	}
	classes := s.engine.Classes()
	thetas := make([]predicate.Pred, len(classes))
	for i, c := range classes {
		thetas[i] = c.Theta
	}
	scores := belief.Attribution(s.engine.U, thetas, answers, s.cfg.seed)
	crit := belief.DropOneCritical(s.engine.U, thetas, answers)
	for i := range out {
		out[i].Score = scores[i]
		out[i].Critical = crit[i]
	}
	return out
}
