package joininference

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/paperdata"
)

func runSession(t *testing.T, goalText string) (*Session, Pred) {
	t.Helper()
	inst := paperdata.FlightHotel()
	s := NewSession(inst)
	goal, err := ParsePredicate(s.Universe(), goalText)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), s, HonestOracle(goal)); err != nil {
		t.Fatal(err)
	}
	return s, goal
}

// TestTranscriptRoundTrip: a finished session's transcript travels in its
// snapshot, and the encoded snapshot resumes into the same session.
func TestTranscriptRoundTrip(t *testing.T) {
	s, _ := runSession(t, "Flight.To = Hotel.City")
	if len(s.Transcript()) != s.Questions() {
		t.Fatalf("transcript has %d entries, %d questions asked",
			len(s.Transcript()), s.Questions())
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ResumeSession(paperdata.FlightHotel(), decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEntries(replayed.Transcript(), s.Transcript()) {
		t.Errorf("replayed transcript %v ≠ original %v", replayed.Transcript(), s.Transcript())
	}
	if !replayed.Inferred().Equal(s.Inferred()) {
		t.Errorf("replayed predicate %v ≠ original %v",
			replayed.Inferred(), s.Inferred())
	}
	if !replayed.Done() {
		t.Error("replayed session should be done")
	}
}

// TestReplayErrors: corrupt documents and transcripts fail with a
// sentinel, never a panic or a half-built session.
func TestReplayErrors(t *testing.T) {
	inst := paperdata.FlightHotel()
	if _, err := DecodeSnapshot(strings.NewReader("not json")); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("garbage snapshot: err = %v, want ErrBadSnapshot", err)
	}
	resume := func(entries ...TranscriptEntry) (*Session, error) {
		return ResumeSession(inst, &Snapshot{Version: 1, Kind: SnapshotKindJoin, Asked: len(entries), Transcript: entries})
	}
	if _, err := resume(TranscriptEntry{RIndex: 99, PIndex: 0, Positive: true}); !errors.Is(err, ErrBadTranscript) {
		t.Errorf("out-of-range entry: err = %v, want ErrBadTranscript", err)
	}
	// Two positives then a negative that T(S+) may already decide: if its
	// label contradicts, the replay must fail with ErrBadTranscript (and
	// ErrInconsistent); otherwise it yields a usable session.
	s, err := resume(
		TranscriptEntry{RIndex: 0, PIndex: 1, Positive: true},
		TranscriptEntry{RIndex: 0, PIndex: 0, Positive: true},
		TranscriptEntry{RIndex: 2, PIndex: 2, Positive: false})
	if err != nil && !errors.Is(err, ErrBadTranscript) {
		t.Errorf("contradicting transcript: err = %v, want ErrBadTranscript", err)
	}
	if err == nil && s == nil {
		t.Error("nil session without error")
	}
}

func TestSQLFacade(t *testing.T) {
	s, goal := runSession(t, "Flight.To = Hotel.City")
	sql := SQL(s.Universe(), goal, false, false)
	if !strings.Contains(sql, `JOIN "Hotel"`) {
		t.Errorf("SQL = %q", sql)
	}
	semi := SQL(s.Universe(), goal, true, true)
	if !strings.Contains(semi, "EXISTS") {
		t.Errorf("semijoin SQL = %q", semi)
	}
}

func TestParsePredicateFacade(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	p, err := ParsePredicate(u, "To = City")
	if err != nil || p.Size() != 1 {
		t.Errorf("ParsePredicate: %v, size %d", err, p.Size())
	}
	if _, err := ParsePredicate(u, "garbage"); err == nil {
		t.Error("garbage accepted")
	}
}
