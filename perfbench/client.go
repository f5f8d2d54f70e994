package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"time"

	joininference "repro"
)

// client speaks the joinserve HTTP/JSON protocol over keep-alive loopback
// connections, at most one per load-generator client.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// statusError is a response status the protocol did not expect.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// do sends one request and decodes a 2xx JSON response into out. Any other
// status is a *statusError.
func (c *client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Wire shapes of the joinserve protocol (see internal/service/http.go).
type (
	createBody struct {
		Instance string                   `json:"instance"`
		Semijoin bool                     `json:"semijoin,omitempty"`
		Strategy joininference.StrategyID `json:"strategy,omitempty"`
	}
	infoBody struct {
		ID string `json:"id"`
	}
	wireQuestion struct {
		R      int      `json:"r"`
		P      int      `json:"p"`
		RTuple []string `json:"r_tuple"`
		PTuple []string `json:"p_tuple"`
	}
	questionsBody struct {
		Questions []wireQuestion `json:"questions"`
		Done      bool           `json:"done"`
	}
	wireAnswer struct {
		R        int  `json:"r"`
		P        int  `json:"p"`
		Positive bool `json:"positive"`
	}
	answersBody struct {
		Answers []wireAnswer `json:"answers"`
	}
	predicateBody struct {
		Predicate string `json:"predicate"`
		Asked     int    `json:"asked"`
		Done      bool   `json:"done"`
	}
	ingestBody struct {
		InsertR [][]string `json:"insert_r,omitempty"`
		InsertP [][]string `json:"insert_p,omitempty"`
		DeleteR []int      `json:"delete_r,omitempty"`
		DeleteP []int      `json:"delete_p,omitempty"`
	}
	ingestResult struct {
		Version int64 `json:"version"`
		Classes int   `json:"classes"`
	}
)

// labelFunc answers one served question for a session; honestLabel is the
// benchmark's crowd worker, tests plant liars.
type labelFunc func(s *crowdSession, q wireQuestion) (bool, error)

// honestLabel rehydrates the question on the load generator's copy of the newest
// instance version that still holds its rows (a delta may have deleted one
// since the question was served; join labels depend only on row values),
// checks the served row values against it, and asks HonestOracle for the
// session's goal.
func honestLabel(s *crowdSession, q wireQuestion) (bool, error) {
	in := s.spec.inst
	ref := joininference.QuestionRef{RIndex: q.R, PIndex: q.P}
	var lq joininference.Question
	var err error
	for v := in.prepared.Load(); v >= s.vLo; v-- {
		if lq, err = in.at(v).question(s.spec.semijoin, ref); err == nil {
			break
		}
	}
	if err != nil {
		return false, fmt.Errorf("question %v on %s: %w", ref, in.name, err)
	}
	if !equalTuple(lq.RTuple, q.RTuple) || (!s.spec.semijoin && !equalTuple(lq.PTuple, q.PTuple)) {
		return false, fmt.Errorf("question %v on %s: served rows %v/%v differ from the instance's %v/%v",
			ref, in.name, q.RTuple, q.PTuple, lq.RTuple, lq.PTuple)
	}
	l, err := joininference.HonestOracle(in.goals[s.spec.goal]).Label(context.Background(), lq)
	return l == joininference.Positive, err
}

func equalTuple(a joininference.Tuple, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// crowdSession is one simulated requester: create a session, then
// question/answer rounds with think time between requests until the
// server reports Γ, then fetch the predicate.
type crowdSession struct {
	c     *client
	spec  sessionSpec
	label labelFunc
	think func() time.Duration
	// retryConflicts follows the conflict protocol: an answer round
	// refused after a concurrent ingest is re-asked, not failed.
	retryConflicts bool

	state   int // 0 create, 1 questions, 2 answers, 3 predicate
	id      string
	pending []wireQuestion
	// Result, checked after the run.
	predicate string
	asked     int
	questions int // questions served, summed over rounds
	// vCreate/vLo/vHi bound the instance versions the session can have
	// run on: committed when created, committed before its last question
	// round, prepared after its predicate was read.
	vCreate, vLo, vHi int64
}

func (s *crowdSession) step(ctx context.Context) stepResult {
	switch s.state {
	case 0:
		r := stepResult{route: "create"}
		s.vCreate = s.spec.inst.committed.Load()
		var info infoBody
		if r.err = r.timed(func() error {
			return s.c.do(ctx, http.MethodPost, "/sessions",
				createBody{Instance: s.spec.inst.name, Semijoin: s.spec.semijoin, Strategy: s.spec.strategy}, &info)
		}); r.err != nil {
			return r
		}
		s.id, s.state = info.ID, 1
		r.think = s.think()
		return r
	case 1:
		r := stepResult{route: "questions"}
		s.vLo = s.spec.inst.committed.Load()
		var qb questionsBody
		if r.err = r.timed(func() error {
			return s.c.do(ctx, http.MethodGet, fmt.Sprintf("/sessions/%s/questions?k=%d", s.id, s.spec.k), nil, &qb)
		}); r.err != nil {
			return r
		}
		if qb.Done != (len(qb.Questions) == 0) || len(qb.Questions) > s.spec.k {
			r.err = fmt.Errorf("session %s: %d questions with done=%v at k=%d", s.id, len(qb.Questions), qb.Done, s.spec.k)
			return r
		}
		s.questions += len(qb.Questions)
		s.pending = qb.Questions
		if qb.Done {
			s.state = 3
		} else {
			s.state = 2
		}
		r.think = s.think()
		return r
	case 2:
		r := stepResult{route: "answers"}
		ab := answersBody{Answers: make([]wireAnswer, len(s.pending))}
		for i, q := range s.pending {
			pos, err := s.label(s, q)
			if err != nil {
				r.err = err
				return r
			}
			ab.Answers[i] = wireAnswer{R: q.R, P: q.P, Positive: pos}
		}
		err := r.timed(func() error { return s.c.do(ctx, http.MethodPost, "/sessions/"+s.id+"/answers", ab, nil) })
		s.state = 1
		if s.retryConflicts && staleRound(err) && s.spec.inst.prepared.Load() != s.vLo {
			// A delta landed since the round was served: re-ask.
			r.retry = true
		} else if r.err = err; err != nil {
			return r
		}
		r.think = s.think()
		return r
	default:
		r := stepResult{route: "predicate"}
		var pb predicateBody
		if r.err = r.timed(func() error {
			return s.c.do(ctx, http.MethodGet, "/sessions/"+s.id+"/predicate", nil, &pb)
		}); r.err != nil {
			return r
		}
		s.vHi = s.spec.inst.prepared.Load()
		if !pb.Done {
			r.err = fmt.Errorf("session %s: predicate read after Γ reports done=false", s.id)
			return r
		}
		s.predicate, s.asked = pb.Predicate, pb.Asked
		r.done = true
		return r
	}
}

// staleRound reports the answers a round refused because the instance
// moved under it: 409 (an answer inconsistent with the new version), or
// 400 naming a question ref whose row the delta deleted.
func staleRound(err error) bool {
	var se *statusError
	return errors.As(err, &se) && (se.code == http.StatusConflict ||
		(se.code == http.StatusBadRequest && strings.Contains(se.body, "bad question ref")))
}

// ingestFlow sends one delta to an instance: it inserts and deletes the
// same number of rows of R and of P, drawn from the instance's generator,
// and checks the version and class count the server reports against the
// load generator's own copy. Applying the delta to that copy precedes the
// send and is not charged to the request.
type ingestFlow struct {
	c    *client
	inst *instance
	rows int
}

func (f *ingestFlow) step(ctx context.Context) stepResult {
	in := f.inst
	in.ingestMu.Lock()
	defer in.ingestMu.Unlock()
	tip := in.tip()
	d, body := makeDelta(tip.inst, in.cfg.Values, f.rows, in.rng)
	upd, err := joininference.ApplyDelta(tip.inst, tip.cs, d)
	if err != nil {
		return stepResult{route: "ingest", err: fmt.Errorf("local copy of %s: %w", in.name, err)}
	}
	next := &version{v: upd.To.Version(), inst: upd.To, cs: upd.Classes}
	in.mu.Lock()
	in.versions[next.v] = next
	in.mu.Unlock()
	in.prepared.Store(next.v)
	r := stepResult{route: "ingest"}
	var res ingestResult
	if r.err = r.timed(func() error {
		return f.c.do(ctx, http.MethodPost, "/instances/"+in.name+"/rows", body, &res)
	}); r.err != nil {
		return r
	}
	if res.Version != next.v || res.Classes != next.cs.Len() {
		r.err = fmt.Errorf("ingest on %s: server at version %d with %d classes, local copy at %d with %d",
			in.name, res.Version, res.Classes, next.v, next.cs.Len())
		return r
	}
	in.committed.Store(next.v)
	r.done = true
	return r
}

// makeDelta draws n fresh rows for each relation from the synthetic
// generator's value range and n distinct live rows of each to delete.
func makeDelta(inst *joininference.Instance, values, n int, rng *rand.Rand) (joininference.Delta, ingestBody) {
	var d joininference.Delta
	var body ingestBody
	fresh := func(arity int) []string {
		t := make([]string, arity)
		for i := range t {
			t[i] = fmt.Sprint(rng.IntN(values))
		}
		return t
	}
	live := func(rows int, alive func(int) bool) []int {
		var idx []int
		for i := 0; i < rows; i++ {
			if alive(i) {
				idx = append(idx, i)
			}
		}
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		if len(idx) > n {
			idx = idx[:n]
		}
		return idx
	}
	for i := 0; i < n; i++ {
		r, p := fresh(len(inst.R.Schema.Attributes)), fresh(len(inst.P.Schema.Attributes))
		d.InsertR = append(d.InsertR, r)
		d.InsertP = append(d.InsertP, p)
		body.InsertR = append(body.InsertR, r)
		body.InsertP = append(body.InsertP, p)
	}
	d.DeleteR, d.DeleteP = live(inst.R.Len(), inst.RAlive), live(inst.P.Len(), inst.PAlive)
	body.DeleteR, body.DeleteP = d.DeleteR, d.DeleteP
	return d, body
}
