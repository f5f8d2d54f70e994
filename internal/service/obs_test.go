package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	joininference "repro"
	"repro/internal/obs"
	"repro/internal/paperdata"
	"repro/internal/store"
)

// obsServer builds an httptest server with the full telemetry stack: a
// bundle, a JSON logger into a buffer, and a store (so the store latency
// segment fires too).
func obsServer(t *testing.T) (*httptest.Server, *Obs, *bytes.Buffer) {
	t.Helper()
	bundle := NewObs()
	logBuf := &bytes.Buffer{}
	m, err := NewManager(testRegistry(t), Options{
		Store:  store.NewMem(),
		Logger: obs.NewLogger(logBuf, "json", 0),
		Obs:    bundle,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)
	return srv, bundle, logBuf
}

// TestObsEndToEnd drives a session over HTTP with telemetry attached and
// checks the whole pipeline: request ids correlate the response header,
// the access log and the trace spans; /metrics parses as Prometheus text
// exposition with the serving histograms populated; /debug/metrics stays
// backward-compatible JSON.
func TestObsEndToEnd(t *testing.T) {
	srv, bundle, logBuf := obsServer(t)
	client := srv.Client()
	inst := paperdata.FlightHotel()
	goal := flightGoal(t)

	var info Info
	doJSON(t, client, http.MethodPost, srv.URL+"/sessions",
		Params{Instance: "flights", Strategy: joininference.StrategyL2S}, http.StatusCreated, &info)

	// One questions fetch with a client-supplied request id, to pin the
	// correlation end to end.
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/sessions/%s/questions?k=2", srv.URL, info.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "e2e-test-request")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var qr wireQuestions
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "e2e-test-request" {
		t.Fatalf("response request id = %q", got)
	}
	if len(qr.Questions) == 0 {
		t.Fatal("no questions")
	}

	// Drive to convergence so every segment (strategy, store) observes.
	var res AnswerResult
	doJSON(t, client, http.MethodPost, fmt.Sprintf("%s/sessions/%s/answers", srv.URL, info.ID),
		answersRequest{Answers: honestAnswers(inst, goal, qr.Questions)}, http.StatusOK, &res)
	driveHTTP(t, client, srv.URL, info.ID, inst, goal, 2)

	// The access log carries the pinned request id on exactly the one
	// request that sent it.
	reqLines := 0
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %q", line)
		}
		if rec["request_id"] == "e2e-test-request" {
			reqLines++
			if rec["route"] != "GET /sessions/{id}/questions" {
				t.Errorf("pinned request logged route %v", rec["route"])
			}
		}
	}
	if reqLines != 1 {
		t.Errorf("pinned request id appeared in %d access-log lines, want 1", reqLines)
	}

	// All spans of the pinned request share its trace id, and the handler
	// span nests under the http root span.
	var httpSpan, sessSpan *obs.Span
	for _, s := range bundle.Tracer.Recent("", 0) {
		if s.Trace != "e2e-test-request" {
			continue
		}
		s := s
		switch {
		case strings.HasPrefix(s.Name, "http "):
			httpSpan = &s
		case s.Name == "session.questions":
			sessSpan = &s
		}
	}
	if httpSpan == nil || sessSpan == nil {
		t.Fatalf("pinned trace incomplete: http=%v session=%v", httpSpan, sessSpan)
	}
	if sessSpan.Parent != httpSpan.ID {
		t.Errorf("session span parent = %d, want http span id %d", sessSpan.Parent, httpSpan.ID)
	}
	if sessSpan.Session != info.ID {
		t.Errorf("session span session = %q, want %q", sessSpan.Session, info.ID)
	}

	// GET /debug/trace serves the same spans, filterable by session.
	var tr traceResponse
	doJSON(t, client, http.MethodGet, srv.URL+"/debug/trace?session="+info.ID, nil, http.StatusOK, &tr)
	if len(tr.Spans) == 0 || tr.Total == 0 {
		t.Fatalf("debug trace empty: %+v", tr)
	}
	for _, s := range tr.Spans {
		if s.Session != info.ID {
			t.Errorf("trace filter leaked span %+v", s)
		}
	}

	// GET /metrics: correct content type, and the serving histograms fired.
	mresp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("content type = %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE question_segment_seconds histogram",
		`question_segment_seconds_count{segment="strategy"}`,
		`question_segment_seconds_count{segment="store"}`,
		"# TYPE http_requests_total counter",
		`http_requests_total{route="GET /sessions/{id}/questions"}`,
		"# TYPE sessions_created_total counter",
		"sessions_created_total 1",
		"# TYPE questions_served_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(out, `question_segment_seconds_count{segment="strategy"} 0`) {
		t.Error("strategy segment histogram never observed")
	}
	if strings.Contains(out, `question_segment_seconds_count{segment="store"} 0`) {
		t.Error("store segment histogram never observed")
	}

	// /debug/metrics stays backward-compatible JSON.
	var met Metrics
	doJSON(t, client, http.MethodGet, srv.URL+"/debug/metrics", nil, http.StatusOK, &met)
	if met.SessionsCreated != 1 || met.QuestionsServed == 0 {
		t.Errorf("debug metrics: %+v", met)
	}

	// One source, two views: every counter both surfaces expose reads the
	// same value. No session operation runs between the two reads.
	prom := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			prom[name] = val
		}
	}
	for name, want := range map[string]int64{
		"sessions_live":          int64(met.SessionsLive),
		"sessions_created_total": met.SessionsCreated,
		"questions_served_total": met.QuestionsServed,
		"answers_applied_total":  met.AnswersApplied,
		"deltas_ingested_total":  met.DeltasIngested,
	} {
		if got, ok := prom[name]; !ok || got != strconv.FormatInt(want, 10) {
			t.Errorf("/metrics %s = %q (present %v), /debug/metrics has %d", name, got, ok, want)
		}
	}
}

// TestObsPolicyCacheMetrics: with a shared policy cache and store tier,
// the cache-hit segment and page-in histogram observe, and the hit-ratio
// gauge renders.
func TestObsPolicyCacheMetrics(t *testing.T) {
	bundle := NewObs()
	kv := store.NewMem()
	pc := joininference.NewPolicyCache(-1)
	pc.AttachStore(kv, 0)
	m, err := NewManager(testRegistry(t), Options{PolicyCache: pc, Obs: bundle})
	if err != nil {
		t.Fatal(err)
	}
	goal := flightGoal(t)
	// Two identical sessions: the second is served from the policy cache.
	for i := 0; i < 2; i++ {
		info, err := m.Create(Params{Instance: "flights", Strategy: joininference.StrategyL2S})
		if err != nil {
			t.Fatal(err)
		}
		driveToDone(t, m, info.ID, goal, 1)
	}
	var buf strings.Builder
	if err := bundle.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "policy_cache_hit_ratio") {
		t.Errorf("missing hit-ratio gauge:\n%s", out)
	}
	if strings.Contains(out, `question_segment_seconds_count{segment="cache"} 0`) {
		t.Error("cache segment histogram never observed")
	}
	if st := pc.Stats(); st.Hits == 0 {
		t.Errorf("expected policy cache hits, got %+v", st)
	}
}

// TestObsStoreOpTimings: the store's Observe hook feeds store_op_seconds.
func TestObsStoreOpTimings(t *testing.T) {
	bundle := NewObs()
	dir := t.TempDir()
	kv, err := store.OpenLog(dir, store.LogOptions{Observe: bundle.StoreObserver()})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if err := kv.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Sync(); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := bundle.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, `store_op_seconds_count{op="append"} 0`) || !strings.Contains(out, `store_op_seconds_count{op="append"}`) {
		t.Errorf("append timing not observed:\n%s", out)
	}
	if strings.Contains(out, `store_op_seconds_count{op="fsync"} 0`) {
		t.Errorf("fsync timing not observed:\n%s", out)
	}
}
