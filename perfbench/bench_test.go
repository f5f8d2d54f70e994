package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain lets the test binary double as the server process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) == "serve" {
		if err := serveMain(os.Args[1:]); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func shortConfig(t *testing.T, name string, trace bool) config {
	t.Helper()
	w, ok := workloads[name]
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return config{workload: w, seed: 7, seconds: 1, trace: trace, buildDir: t.TempDir(), setups: 1, label: honestLabel}
}

// Every workload passes its output checks, without failed requests, at a
// short length.
func TestWorkloadsPassChecksShort(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := runBenchmark(context.Background(), shortConfig(t, name, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d failures=%v errors=%v",
					res.Correct, res.Failed, res.Attempted, res.Failures, res.Errors)
			}
		})
	}
}

// The summary line's metric sets are exactly the ones BENCHMARK.json
// declares, a traced run measures all of them, and the layer rows account
// for the client mean to within 10%.
func TestMetricsMatchBenchmarkDefinition(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []specMetric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	var e2e []string
	for n := range endToEnd {
		e2e = append(e2e, n)
	}
	sort.Strings(e2e)
	if got, want := e2e, names(spec.EndToEnd); !equalStrings(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json %v", got, want)
	}
	res, err := runBenchmark(context.Background(), shortConfig(t, "cold-lookahead", true), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var layer []string
	for n := range perLayer {
		layer = append(layer, n)
		if _, ok := res.Metrics[n]; !ok {
			t.Errorf("traced run lacks per-layer metric %s", n)
		}
	}
	sort.Strings(layer)
	if want := names(spec.PerLayer); !equalStrings(layer, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json %v", layer, want)
	}
	if u := res.Metrics["unaccounted_pct"].Value; u < -10 || u > 10 {
		t.Errorf("layer rows leave %.1f%% of the client mean unaccounted", u)
	}
	if res.Metrics["policy.hit_ratio"].Value != 0 || res.Metrics["strategy.picks"].Value == 0 {
		t.Errorf("cold-lookahead: hit ratio %v, strategy picks %v; want 0 and > 0",
			res.Metrics["policy.hit_ratio"].Value, res.Metrics["strategy.picks"].Value)
	}
}

func equalStrings(a, b []string) bool {
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

// A crowd worker who lies about the first question of every session makes
// the output checks fail.
func TestLyingOracleIsRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes")
	}
	cfg := shortConfig(t, "cold-lookahead", false)
	cfg.label = func(s *crowdSession, q wireQuestion) (bool, error) {
		pos, err := honestLabel(s, q)
		if s.questions == 1 {
			pos = !pos
		}
		return pos, err
	}
	res, err := runBenchmark(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatalf("a lying oracle passed the checks (attempted %d, failed %d)", res.Attempted, res.Failed)
	}
}

// getFlow sends one GET.
type getFlow struct {
	c    *client
	path string
}

func (f getFlow) step(ctx context.Context) stepResult {
	r := stepResult{route: "get", done: true}
	r.err = r.timed(func() error { return f.c.do(ctx, http.MethodGet, f.path, nil, nil) })
	return r
}

// A server stall is charged to the requests queued behind it: the open
// loop times every request from when it was due, not from when a client
// got round to sending it.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var first atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	c := newClient(srv.Listener.Addr().String(), 1)
	defer c.close()
	var arrivals []arrival
	for i := 0; i < 20; i++ {
		arrivals = append(arrivals, arrival{at: time.Duration(i) * 20 * time.Millisecond, f: getFlow{c, "/"}})
	}
	run := runOpen(context.Background(), 1, arrivals, 5*time.Second)
	if len(run.samples) != len(arrivals) {
		t.Fatalf("%d samples, want %d", len(run.samples), len(arrivals))
	}
	stallEnd := run.start.Add(stall)
	queued := 0
	for _, s := range run.samples {
		if s.failed {
			t.Fatalf("request failed")
		}
		// Skip the stalled request itself (sent at once) and those due
		// after the stall.
		if !s.due.Before(stallEnd) || s.start.Before(run.start.Add(stall/2)) {
			continue
		}
		queued++
		// Due during the stall: its latency runs from its due time past the
		// stall's end, although the request itself was quick.
		if want := stallEnd.Sub(s.due); s.latency() < want {
			t.Errorf("request due %v into the run: latency %v, want at least %v", s.due.Sub(run.start), s.latency(), want)
		}
		if s.service() > 100*time.Millisecond {
			t.Errorf("request due %v into the run: service time %v includes the queueing", s.due.Sub(run.start), s.service())
		}
	}
	if queued < 10 {
		t.Fatalf("only %d requests were due during the stall", queued)
	}
}

// prepFlow does load-generator work before sending its one GET.
type prepFlow struct {
	getFlow
	prep time.Duration
}

func (f prepFlow) step(ctx context.Context) stepResult {
	time.Sleep(f.prep)
	return f.getFlow.step(ctx)
}

// The load generator's own work before a send is not charged to the
// request, in either loop.
func TestLoadGeneratorWorkIsNotCharged(t *testing.T) {
	const prep = 200 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	c := newClient(srv.Listener.Addr().String(), 1)
	defer c.close()
	f := prepFlow{getFlow{c, "/"}, prep}
	open := runOpen(context.Background(), 1, []arrival{{f: f}}, 5*time.Second)
	closed := runClosed(context.Background(), 1, 0, 1, func(int) flow { return f })
	for _, run := range []runResult{open, closed} {
		if len(run.samples) != 1 || run.samples[0].failed {
			t.Fatalf("samples %+v, want one that succeeded", run.samples)
		}
		if s := run.samples[0]; s.latency() >= prep || s.service() >= prep || run.outcomes[0].total >= prep {
			t.Errorf("latency %v, service %v, session total %v: the %v of preparation was charged",
				s.latency(), s.service(), run.outcomes[0].total, prep)
		}
	}
}

// A change whose runs fail their checks or fail more requests is worse
// whatever its figures; runs of different methods are not compared.
func TestGate(t *testing.T) {
	run := func(correct bool, failed int, rate float64) *result {
		return &result{Correct: correct, Failed: failed, Method: method{Rate: rate}}
	}
	ok := []*result{run(true, 0, 10), run(true, 1, 10)}
	for _, tc := range []struct {
		name   string
		change []*result
		want   string
	}{
		{"clean", []*result{run(true, 0, 10), run(true, 1, 10)}, ""},
		{"incorrect", []*result{run(true, 0, 10), run(false, 0, 10)}, worse},
		{"more failures", []*result{run(true, 1, 10), run(true, 1, 10)}, worse},
		{"other rate", []*result{run(true, 0, 20), run(true, 1, 20)}, unresolved},
	} {
		if got, why := gate(ok, tc.change); got != tc.want {
			t.Errorf("%s: %q (%s), want %q", tc.name, got, why, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		name         string
		change       []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"faster", shift(-1), false, 0.1, improved},
		{"slower beyond bound", shift(2), false, 0.1, worse},
		{"same", shift(0), false, 0.1, unchanged},
		{"faster but higher is better", shift(-1), true, 0.1, worse},
		{"too few pairs", shift(-1)[:9], false, 0.1, unresolved},
		{"no bound, small move", shift(0.05), false, -1, unchanged},
	} {
		p := pairing{parent: base, change: tc.change}
		if tc.name == "too few pairs" {
			p.parent = base[:9]
		}
		if got, why := judge(p, tc.higherBetter, tc.bound); got != tc.want {
			t.Errorf("%s: %s (%s), want %s", tc.name, got, why, tc.want)
		}
	}
}

func TestInterleaved(t *testing.T) {
	at := func(s int) *result { return &result{StartedAt: time.Unix(int64(s), 0)} }
	// Pairs (P,C), (C,P), (P,C): alternating.
	if !interleaved([]*result{at(0), at(3), at(4)}, []*result{at(1), at(2), at(5)}) {
		t.Error("alternating pairs reported as not interleaved")
	}
	// All parents first.
	if interleaved([]*result{at(0), at(1), at(2)}, []*result{at(3), at(4), at(5)}) {
		t.Error("parents-then-changes reported as interleaved")
	}
}
