// Command perfbench is the repository's serving benchmark: a load generator
// process that plays simulated crowd requesters against a joinserve stack
// in a separate server process, over HTTP/JSON on loopback TCP.
//
// Usage (from the repository root; run.sh builds it first):
//
//	bash perfbench/run.sh --workload warm-crowd --seed 1 --seconds 10 --trace 0
//	perfbench compare -parent DIR -change DIR [-bench BENCHMARK.json]
//
// Workloads:
//
//	warm-crowd      open loop over the 11 DefaultRegistry instances, all
//	                five strategies, 20% semijoin, k ∈ {1,2,3}, exponential
//	                think time, policy cache warmed in setup
//	cold-lookahead  closed loop, L1S/L2S join and semijoin, k = 1, policy
//	                cache off, fresh-seed synthetic instances
//	ingest-mix      warm-crowd-style join traffic over the Figure 7
//	                instances plus an open-loop stream of deltas
//
// Every run checks the server's outputs: each converged predicate selects
// the goal's pairs on the instance version it converged at, and its
// question count equals an in-process run of the same session shape. With
// --trace 0 the last line of standard output is a JSON object with the
// end-to-end metrics; with --trace 1 the workload runs twice, for half the
// seconds each, untraced and then with the benchmark's measuring wrappers
// and span sink, and the line carries the per-layer metrics. Each run's full result, in the one schema
// (result.go), is written under -build-dir/results.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// roleEnv marks a re-executed copy of this binary as the server process.
const roleEnv = "PERFBENCH_ROLE"

func main() {
	var err error
	switch {
	case os.Getenv(roleEnv) == "serve":
		err = serveMain(os.Args[1:])
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = compareMain(os.Args[2:], os.Stdout)
	default:
		err = loadMain(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// config is one benchmark invocation.
type config struct {
	workload *workload
	seed     int64
	seconds  int
	trace    bool
	buildDir string
	setups   int
	out      string
	label    labelFunc
}

func loadMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "timed window in seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	buildDir := fs.String("build-dir", ".bench_build", "scratch directory for stores, logs and results")
	out := fs.String("out", "", "result file (default: <build-dir>/results/<workload>-s<seed>-t<trace>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("want -seconds ≥ 1 and -trace 0 or 1")
	}
	cfg := config{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		buildDir: *buildDir, setups: w.setups, out: *out,
		label: honestLabel,
	}
	res, err := runBenchmark(context.Background(), cfg, stdout)
	if err != nil {
		return err
	}
	path := cfg.out
	if path == "" {
		path = filepath.Join(cfg.buildDir, "results", fmt.Sprintf("%s-s%d-t%d.json", w.name, cfg.seed, *trace))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := writeResult(path, res); err != nil {
		return err
	}
	if err := printResult(stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// printResult prints every metric by name and unit, then the one-line
// JSON summary.
func printResult(stdout io.Writer, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s seed=%d correct=%v attempted=%d failed=%d retries=%d\n",
		res.Workload, res.Seed, res.Correct, res.Attempted, res.Failed, res.Retries)
	for _, f := range res.Failures {
		fmt.Fprintln(stdout, "  check failed:", f)
	}
	for _, e := range res.Errors {
		fmt.Fprintln(stdout, "  request failed:", e)
	}
	type line struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]line `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]line{}}
	for _, n := range names {
		m := res.Metrics[n]
		if (!res.Trace && endToEnd[n]) || (res.Trace && perLayer[n]) {
			summary.Metrics[n] = line{m.Value, m.Unit}
		}
		fmt.Fprintf(stdout, "  %-44s %14.6f %-6s (n=%d, q1=%.4g, q3=%.4g)\n", n, m.Value, m.Unit, m.N, m.Q1, m.Q3)
	}
	b, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(b))
	return err
}

// endToEnd names the metrics a --trace 0 run reports in its summary line.
// The p99 latencies and session_p50_ms are printed and kept in the result
// file but left out: on a shared 2-CPU VM their spread across runs (p99s
// 10–80% of the median; session_p50_ms 16–20% in quiet phases of the host
// and up to 100% in slow ones, as a session's ~20 queued requests amplify
// a slowdown) exceeds any bound a regression gate can use.
var endToEnd = map[string]bool{
	"setup_s": true, "question_p50_ms": true, "answer_p50_ms": true,
	"sessions_per_s": true, "questions_per_session": true, "peak_rss_mb": true,
}

// perLayer names the metrics a --trace 1 run reports in its summary line:
// those measured on every workload, plus ratios and counts. Times that are
// zero by construction on some workload (a layer the workload bypasses:
// policy.us_per_req on cold-lookahead, strategy.us_per_req on warm-crowd,
// driver.lag_p99_ms in a closed loop, ...) are printed with the layer table
// and kept in the result file but left out, as a time that reads the same
// on every run carries no measurement.
var perLayer = map[string]bool{
	"client.us_per_req":                       true,
	"net.us_per_req":                          true,
	"obs.trace_overhead_pct":                  true,
	"policy.evictions":                        true,
	"policy.hit_ratio":                        true,
	"policy.invalidated":                      true,
	"runtime.alloc_bytes_per_req":             true,
	"runtime.allocs_per_req":                  true,
	"runtime.gc_pause_ms":                     true,
	"service.http.answers.us_per_req":         true,
	"service.http.bytes_per_question":         true,
	"service.http.create.us_per_req":          true,
	"service.http.questions.us_per_req":       true,
	"service.http.us_per_req":                 true,
	"service.manager.migrations":              true,
	"service.manager.us_per_req":              true,
	"service.registry.load_ms":                true,
	"session.l1s.us_per_answer":               true,
	"session.l1s.us_per_question":             true,
	"session.l2s.us_per_answer":               true,
	"session.l2s.us_per_question":             true,
	"store.bytes_per_answer":                  true,
	"store.compactions":                       true,
	"store.puts_per_answer":                   true,
	"store.us_per_put":                        true,
	"store.us_per_req":                        true,
	"strategy.l1s.live_us_per_question":       true,
	"strategy.l1s.omega_le64.ms_per_question": true,
	"strategy.l2s.live_us_per_question":       true,
	"strategy.l2s.omega_le64.ms_per_question": true,
	"strategy.picks":                          true,
	"unaccounted_pct":                         true,
}

func clients() int { return runtime.NumCPU() }

// runBenchmark sets the server up (several times, for setup_s), runs the
// timed window, checks the outputs and, when tracing, repeats the window
// on a traced server for the layer table.
func runBenchmark(ctx context.Context, cfg config, stdout io.Writer) (*result, error) {
	w := cfg.workload
	pool, err := w.pool()
	if err != nil {
		return nil, err
	}
	res := &result{
		Schema: schemaVersion, Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		StartedAt: time.Now().UTC(), Env: currentEnv(), Metrics: map[string]metric{},
		Method: method{
			Loop: "closed", Clients: clients(), Setups: cfg.setups,
			PolicyCacheBytes: w.policyCacheBytes, Flush: flushPolicy,
			Transport: "HTTP/1.1 JSON over loopback TCP, keep-alive, one connection per client",
		},
	}
	if w.open {
		res.Method.Loop, res.Method.Rate = "open", w.rate
		res.Method.DeltaRate = w.deltaRate
		res.Method.ThinkMeanMs = ms(w.think)
	}
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	res.Method.Setups = setups
	var setupS []float64
	var srv *serverProc
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < setups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if srv, err = startServer(cfg, pool, false); err != nil {
			return nil, err
		}
		if err := warmUp(ctx, cfg, srv, pool); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	win, err := runWindow(ctx, cfg, srv, pool)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	srv = nil
	chk := newChecker()
	res.Failures = append(win.convergenceFailure(), chk.verify(win.sessions, clients())...)
	res.Correct = len(res.Failures) == 0
	if len(res.Failures) > 10 {
		res.Failures = append(res.Failures[:10], fmt.Sprintf("... and %d more", len(res.Failures)-10))
	}
	res.Attempted, res.Failed, res.Retries = win.attempted, win.failed, win.retries
	res.Errors = win.errors

	if !cfg.trace {
		for k, v := range win.metrics {
			res.Metrics[k] = v
		}
		res.Metrics["setup_s"] = summarize(setupS, 0.5, "s")
		res.Metrics["peak_rss_mb"] = scalar(rss, "MiB")
		return res, nil
	}

	// Traced run: the same workload and seed on a fresh server with the
	// measuring wrappers and span sink on, and a fresh local copy of the
	// instances (the untraced window's deltas advanced the old one).
	if pool, err = w.pool(); err != nil {
		return nil, err
	}
	if srv, err = startServer(cfg, pool, true); err != nil {
		return nil, err
	}
	if err := warmUp(ctx, cfg, srv, pool); err != nil {
		return nil, err
	}
	c := newClient(srv.addr, clients())
	defer c.close()
	var before, after serverStats
	if err := c.do(ctx, "GET", "/bench/stats", nil, &before); err != nil {
		return nil, err
	}
	traced, err := runWindow(ctx, cfg, srv, pool)
	if err != nil {
		return nil, err
	}
	if err := c.do(ctx, "GET", "/bench/stats", nil, &after); err != nil {
		return nil, err
	}
	tchk := newChecker()
	if bad := append(traced.convergenceFailure(), tchk.verify(traced.sessions, clients())...); len(bad) > 0 {
		res.Correct = false
		res.Failures = append(res.Failures, bad[0])
	}
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Retries += traced.retries
	res.Errors = append(res.Errors, traced.errors...)
	res.Metrics = layerMetrics(layerInput{
		samples: traced.samples, before: before, after: after, sessions: traced.sessions,
		live: tchk.liveCost(), untracedMean: win.clientMeanUs,
	})
	printLayerTable(stdout, w.name, res.Metrics)
	return res, nil
}

// windowResult is one timed window's outcome.
type windowResult struct {
	sessions                   []*crowdSession
	samples                    []sample
	metrics                    map[string]metric
	attempted, failed, retries int
	errors                     []string // the first request failures
	clientMeanUs               float64
	// unconverged counts the sessions questions_per_session covers that
	// did not reach a predicate.
	unconverged int
}

// convergenceFailure reports a window in which a session that
// questions_per_session covers did not converge.
func (w *windowResult) convergenceFailure() []string {
	if w.unconverged == 0 {
		return nil
	}
	return []string{fmt.Sprintf("%d counted sessions did not converge; questions_per_session is not exact", w.unconverged)}
}

// expThink draws exponential think times with the given mean (none for a
// zero mean). Each session has its own generator, seeded from the
// workload seed and its index, so draws do not depend on scheduling.
func expThink(mean time.Duration, rng *rand.Rand) func() time.Duration {
	if mean <= 0 {
		return func() time.Duration { return 0 }
	}
	return func() time.Duration { return time.Duration(rng.ExpFloat64() * float64(mean)) }
}

// runWindow runs the timed window against srv and computes the end-to-end
// metrics.
func runWindow(ctx context.Context, cfg config, srv *serverProc, pool []*instance) (*windowResult, error) {
	w := cfg.workload
	c := newClient(srv.addr, clients())
	defer c.close()
	window := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		// A traced run times two windows, untraced then traced; each takes
		// half the run's seconds.
		window /= 2
	}
	for i, in := range pool {
		in.seedDeltas(cfg.seed, i)
	}
	newSession := func(i int) *crowdSession {
		return &crowdSession{
			c: c, spec: w.mix(pool, i, cfg.seed), label: cfg.label, retryConflicts: w.deltaRate > 0,
			think: expThink(w.think, rand.New(rand.NewPCG(uint64(cfg.seed), uint64(i)))),
		}
	}
	var run runResult
	var sessions []*crowdSession
	counted := 0
	if w.open {
		rate := w.rate
		n := int(rate * window.Seconds())
		var arrivals []arrival
		for i := 0; i < n; i++ {
			s := newSession(i)
			sessions = append(sessions, s)
			arrivals = append(arrivals, arrival{at: time.Duration(float64(i) / rate * float64(time.Second)), f: s})
		}
		if w.deltaRate > 0 {
			for j := 0; j < int(w.deltaRate*window.Seconds()); j++ {
				at := time.Duration((float64(j) + 0.5) / w.deltaRate * float64(time.Second))
				arrivals = append(arrivals, arrival{at: at, f: &ingestFlow{c: c, inst: pool[j%len(pool)], rows: 2}})
			}
			sort.SliceStable(arrivals, func(a, b int) bool { return arrivals[a].at < arrivals[b].at })
		}
		run = runOpen(ctx, clients(), arrivals, time.Minute)
		counted = len(sessions)
	} else {
		run = runClosed(ctx, clients(), window, w.exactSessions, func(i int) flow { return newSession(i) })
		for _, o := range run.outcomes {
			sessions = append(sessions, o.f.(*crowdSession))
		}
		counted = w.exactSessions
		if counted == 0 || counted > len(sessions) {
			counted = len(sessions)
		}
	}

	win := &windowResult{sessions: sessions, samples: run.samples, metrics: map[string]metric{}}
	// Latencies are grouped into equal segments of the window by when they
	// were due (sessions by when they ended); a percentile is reported as
	// the median of its per-segment values, so one burst moves one segment.
	segOf := func(t time.Time) int {
		i := int(t.Sub(run.start) * segments / window)
		return max(0, min(segments-1, i))
	}
	byRoute := map[string]*[segments][]float64{}
	var serviceSum float64
	for _, s := range run.samples {
		win.attempted++
		if s.failed {
			win.failed++
			continue
		}
		if byRoute[s.route] == nil {
			byRoute[s.route] = &[segments][]float64{}
		}
		seg := &byRoute[s.route][segOf(s.due)]
		*seg = append(*seg, ms(s.latency()))
		serviceSum += float64(s.service()) / 1e3
	}
	win.clientMeanUs = per(serviceSum, float64(win.attempted-win.failed))
	var sessionMs [segments][]float64
	var converged int
	var last time.Time
	for _, o := range run.outcomes {
		if o.err != nil && len(win.errors) < 5 {
			win.errors = append(win.errors, o.err.Error())
		}
		win.retries += o.retries
		if errors.Is(o.err, errAbandoned) {
			win.failed++
			win.attempted++
		}
		if _, ok := o.f.(*crowdSession); !ok || o.err != nil {
			continue
		}
		seg := &sessionMs[segOf(o.endedAt)]
		*seg = append(*seg, ms(o.total))
		if w.open {
			converged++
			if o.endedAt.After(last) {
				last = o.endedAt
			}
		} else if o.endedAt.Sub(run.start) <= window {
			converged++
		}
	}
	// questions_per_session averages the counted sessions that converged;
	// any counted session that did not makes the run incorrect (see
	// runBenchmark), so the figure is exact for a seed or not reported.
	var asked float64
	for _, s := range sessions[:counted] {
		if s.predicate == "" {
			win.unconverged++
			continue
		}
		asked += float64(s.asked)
	}
	span := window.Seconds()
	if w.open {
		span = last.Sub(run.start).Seconds()
	}
	m := win.metrics
	route := func(name string) *[segments][]float64 {
		if byRoute[name] == nil {
			return &[segments][]float64{}
		}
		return byRoute[name]
	}
	m["question_p50_ms"] = segmented(route("questions"), 0.50, "ms")
	m["question_p99_ms"] = segmented(route("questions"), 0.99, "ms")
	m["answer_p50_ms"] = segmented(route("answers"), 0.50, "ms")
	m["answer_p99_ms"] = segmented(route("answers"), 0.99, "ms")
	m["session_p50_ms"] = segmented(&sessionMs, 0.50, "ms")
	m["sessions_per_s"] = scalar(per(float64(converged), span), "1/s")
	m["questions_per_session"] = scalar(per(asked, float64(counted-win.unconverged)), "count")
	m["failed_ratio"] = scalar(per(float64(win.failed), float64(win.attempted)), "ratio")
	if w.deltaRate > 0 {
		m["ingest_p50_ms"] = segmented(route("ingest"), 0.50, "ms")
		m["ingest_p99_ms"] = segmented(route("ingest"), 0.99, "ms")
	}
	return win, nil
}

// segments is how many equal parts of the timed window latency
// percentiles are computed over.
const segments = 5

// segmented reports the median over segments of each segment's
// q-quantile, with the quartiles of the per-segment values and the total
// sample count. Empty segments are skipped.
func segmented(segs *[segments][]float64, q float64, unit string) metric {
	var per []float64
	n := 0
	for _, xs := range segs {
		if len(xs) > 0 {
			per = append(per, summarize(xs, q, unit).Value)
			n += len(xs)
		}
	}
	m := summarize(per, 0.5, unit)
	m.N = n
	return m
}

// warmUp replays every session shape of the mix once, closed loop, so the
// policy cache holds each decision path the timed window will walk.
func warmUp(ctx context.Context, cfg config, srv *serverProc, pool []*instance) error {
	w := cfg.workload
	if !w.warm {
		return nil
	}
	c := newClient(srv.addr, clients())
	defer c.close()
	combos := w.combos(pool)
	run := runClosed(ctx, clients(), 0, len(combos), func(i int) flow {
		return &crowdSession{c: c, spec: combos[i], label: honestLabel, think: expThink(0, nil)}
	})
	for _, o := range run.outcomes {
		if o.err != nil {
			return fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return nil
}

// seedDeltas re-seeds the instance's delta generator, so every window
// over the pool draws the same deltas.
func (in *instance) seedDeltas(seed int64, index int) {
	in.rng = rand.New(rand.NewPCG(uint64(seed), uint64(index)))
}

// serverProc is a running server process.
type serverProc struct {
	cmd   *exec.Cmd
	addr  string
	dir   string
	stdin io.WriteCloser
	done  chan error
}

// startServer boots a server process for the workload and waits until it
// has preloaded its instances and listens.
func startServer(cfg config, pool []*instance, traced bool) (*serverProc, error) {
	w := cfg.workload
	tmp := filepath.Join(cfg.buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "server-")
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-store-dir", filepath.Join(dir, "store"), "-policy-cache-bytes", strconv.FormatInt(w.policyCacheBytes, 10)}
	if traced {
		args = append(args, "-traced")
	}
	if w.defaultRegistry {
		args = append(args, "-default-registry")
	}
	for _, in := range pool {
		if in.src != "default" {
			args = append(args, "-synth", in.src)
		}
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), roleEnv+"=serve")
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, dir: dir, stdin: stdin, done: make(chan error, 1)}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "ready "); ok {
				ready <- addr
			}
		}
		close(ready)
		p.done <- cmd.Wait()
	}()
	select {
	case addr, ok := <-ready:
		if ok {
			p.addr = addr
			return p, nil
		}
	case <-time.After(2 * time.Minute):
	}
	p.stop()
	log, _ := os.ReadFile(filepath.Join(dir, "server.log"))
	return nil, fmt.Errorf("server did not become ready: %s", strings.TrimSpace(string(log)))
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop shuts the server down (SIGTERM, then kill after 20 s), waits for it
// to exit and removes its directory.
func (p *serverProc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		err = <-p.done
	}
	_ = p.stdin.Close()
	if rmErr := os.RemoveAll(p.dir); err == nil {
		err = rmErr
	}
	p.done <- err // later stops see the same outcome
	return err
}
