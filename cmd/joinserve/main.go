// Command joinserve serves interactive join-inference sessions over
// HTTP/JSON: the crowdsourcing deployment of Section 7, where membership
// questions are dispatched to remote workers over minutes or days rather
// than one process lifetime.
//
// Usage:
//
//	joinserve [-addr :8080] [-ttl 30m] [-sweep-interval 1m]
//	          [-store-dir ./store | -store mem] [-policy-cache-bytes N] [-pprof]
//	          [-log-format text|json] [-log-level info] [-trace-log FILE]
//	          [-trace-buffer N]
//	          [-request-timeout 30s] [-shutdown-timeout 15s]
//	          [-max-concurrent N] [-admission-queue N]
//	          [-store-retries 3] [-breaker-threshold 5] [-breaker-cooloff 5s]
//	          [-chaos seed=1,errors=0.1,latency=2ms,latency-rate=0.05,torn=0.02]
//	          [-warm instance=strategy:depth]... [-csv name=R.csv,P.csv]...
//
// The server starts with the paper's workloads registered (tpch-join1 …
// tpch-join5, synth-1 … synth-6); -csv adds instances from CSV pairs.
//
// Instances are dynamic: POST /instances/{id}/rows ingests a delta (row
// inserts and deletes), moving the instance to its next version. T-classes
// are maintained incrementally, live sessions follow at their next question
// boundary with bit-identical question sequences, the shared policy cache
// migrates or retires exactly the affected decision subtrees, and with a
// store the delta is appended to a per-instance log replayed on the next
// boot. Ingest and invalidation counters appear in /debug/metrics and
// /metrics.
//
// With -store-dir, everything durable lives in one crash-safe KV store
// (see internal/store and README "Persistence"): sessions persist as
// compact binary snapshots on create, on every applied answer, on eviction
// and on shutdown, and restore on boot with bit-identical question
// sequences; the policy cache writes its decision trees through, so warm
// trees survive restarts and page back into the LRU by prefix scan; and
// the registry caches loaded instances plus their precomputed T-classes,
// so boot stops re-parsing CSV and re-generating TPC-H. -store selects the
// backend ("log", the default, or "mem" for store semantics without disk
// — then -store-dir is optional).
// Without a store, sessions live in RAM only: TTL eviction and shutdown
// discard them.
//
// Sessions created with "soft_threshold" or "error_budget" params run
// error-tolerant soft inference: answers carry optional worker ids and
// weights, labels commit only when accumulated belief clears the
// threshold, and contradictions within the error budget retract the
// offending answers instead of failing with a conflict.
// GET /sessions/{id}/explain reports per-answer Banzhaf attribution
// scores, and /debug/metrics gains a "crowd" section with per-worker
// reliability counters (votes, agreements, retractions).
//
// All sessions share one policy cache (-policy-cache-bytes, 0 disables):
// the strategy decision tree of every (instance, strategy, seed) is
// memoized across sessions, so on popular instances only the first user
// pays for the expensive L1S/L2S lookahead. -warm precomputes a tree
// breadth-first at boot (e.g. -warm tpch-join1=L2S:4). Operational
// counters — sessions live/created/evicted, questions served, cache
// hits/misses/evictions — are served as one JSON document at
// /debug/metrics and in Prometheus form at /metrics; both read the same
// counters. See README.md ("Serving", "Policy cache") for a curl
// walkthrough.
//
// Resilience (README "Resilience"): -request-timeout caps every request
// with a server-side deadline (503 + Retry-After on expiry; the deadline
// threads into the engine, so an over-budget L2S lookahead stops
// computing); -max-concurrent/-admission-queue bound the compute-heavy
// routes per route, shedding excess with 429 + Retry-After; store reads
// and writes retry transient errors with jittered backoff
// (-store-retries), and a circuit breaker (-breaker-threshold,
// -breaker-cooloff) trips the policy tier-2 and session-persist paths
// after consecutive failures — persists queue for write-behind retry, the
// RAM copy keeps serving, and GET /readyz reports 503 while degraded.
// -chaos wires deterministic fault injection (seeded error/latency/torn-
// write rates) between the store and its consumers for drills. The
// server's Read/Write/Idle timeouts are fixed sane defaults;
// -shutdown-timeout bounds graceful shutdown including the final persist
// drain.
//
// Observability (README "Observability"): every log line is structured
// (-log-format text|json, -log-level debug|info|warn|error), every request
// gets an X-Request-ID (accepted in, always set on the response) that
// appears in the access log and in trace spans. GET /metrics serves
// counters and latency histograms — per-question strategy/cache/store
// segments, policy-cache page-ins, store append/fsync/compact, per-route
// HTTP latency — in Prometheus text exposition; GET /debug/trace serves
// the most recent finished spans (filterable by ?session=), and -trace-log
// streams them to a file as JSON lines. -trace-buffer sizes the in-RAM
// span ring (default 256; 0 disables tracing).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	joininference "repro"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	cfg := config{}
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.DurationVar(&cfg.ttl, "ttl", 30*time.Minute, "evict sessions idle longer than this (0 disables)")
	flag.DurationVar(&cfg.sweepInterval, "sweep-interval", 0, "how often the janitor sweeps for expired sessions (0 = ttl/4, capped at 1m)")
	flag.StringVar(&cfg.storeDir, "store-dir", "", "root of the persistent KV store (sessions, policy trees, instance cache); empty disables")
	flag.StringVar(&cfg.storeBackend, "store", "", "store backend: log (crash-safe append-only file, default) or mem (no disk; -store-dir optional)")
	flag.Int64Var(&cfg.policyCacheBytes, "policy-cache-bytes", 64<<20, "byte bound of the shared policy-tree cache (0 disables, negative = unbounded)")
	flag.Var(&cfg.warms, "warm", "precompute a policy tree at boot as instance=strategy:depth (repeatable)")
	flag.Var(&cfg.csvs, "csv", "register a CSV instance as name=R.csv,P.csv (repeatable)")
	flag.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ on the serving mux")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "log output format: text (logfmt-style) or json")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	flag.StringVar(&cfg.traceLog, "trace-log", "", "append finished trace spans to this file as JSON lines")
	flag.IntVar(&cfg.traceBuffer, "trace-buffer", 256, "spans retained in RAM for GET /debug/trace (0 disables tracing)")
	flag.DurationVar(&cfg.requestTimeout, "request-timeout", 30*time.Second, "per-request deadline; expired requests answer 503 + Retry-After (0 disables)")
	flag.DurationVar(&cfg.shutdownTimeout, "shutdown-timeout", 15*time.Second, "bound on graceful shutdown: drain in-flight requests, then persist every live session")
	flag.IntVar(&cfg.maxConcurrent, "max-concurrent", 0, "in-flight bound per compute-heavy route (create, questions, answers, ingest); 0 disables admission control")
	flag.IntVar(&cfg.admissionQueue, "admission-queue", 0, "requests that may wait for an admission slot before new arrivals are shed with 429")
	flag.IntVar(&cfg.storeRetries, "store-retries", 3, "attempts per store operation for transient errors (jittered backoff between tries; 1 disables retries)")
	flag.IntVar(&cfg.breakerThreshold, "breaker-threshold", 5, "consecutive store failures that trip the circuit breaker")
	flag.DurationVar(&cfg.breakerCooloff, "breaker-cooloff", 5*time.Second, "how long the tripped breaker waits before probing the store again")
	flag.Var(&cfg.chaos, "chaos", "inject store faults for resilience drills: seed=N,errors=RATE,latency=DUR,latency-rate=RATE,torn=RATE")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "joinserve:", err)
		os.Exit(1)
	}
}

// config carries the parsed flags.
type config struct {
	addr             string
	ttl              time.Duration
	sweepInterval    time.Duration
	storeDir         string
	storeBackend     string
	policyCacheBytes int64
	warms            warmFlags
	csvs             csvFlags
	pprof            bool
	logFormat        string
	logLevel         string
	traceLog         string
	traceBuffer      int
	requestTimeout   time.Duration
	shutdownTimeout  time.Duration
	maxConcurrent    int
	admissionQueue   int
	storeRetries     int
	breakerThreshold int
	breakerCooloff   time.Duration
	chaos            chaosFlag
}

// openStore builds the configured store backend, or nil when none is
// requested; observe feeds append/fsync/compact timings into the metric
// registry.
func openStore(cfg config, observe func(op string, d time.Duration)) (store.KV, error) {
	backend := cfg.storeBackend
	if backend == "" && cfg.storeDir != "" {
		backend = "log"
	}
	switch backend {
	case "":
		return nil, nil
	case "mem":
		return store.NewMem(), nil
	case "log":
		if cfg.storeDir == "" {
			return nil, fmt.Errorf("-store log requires -store-dir")
		}
		return store.OpenLog(cfg.storeDir, store.LogOptions{Observe: observe})
	default:
		return nil, fmt.Errorf("unknown store backend %q (want log or mem)", backend)
	}
}

func run(cfg config) error {
	level, err := obs.ParseLevel(cfg.logLevel)
	if err != nil {
		return err
	}
	logger := obs.NewLogger(os.Stderr, cfg.logFormat, level)
	bundle := service.NewObs()
	if cfg.traceBuffer > 0 {
		bundle.Tracer = obs.NewTracer(cfg.traceBuffer)
	}
	if cfg.traceLog != "" {
		f, err := os.OpenFile(cfg.traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening -trace-log: %w", err)
		}
		defer f.Close()
		bundle.Tracer.SetSink(f)
	}
	kv, err := openStore(cfg, bundle.StoreObserver())
	if err != nil {
		return err
	}
	var chaos *store.Fault
	if kv != nil {
		defer kv.Close()
		if err := store.EnsureFormat(kv); err != nil {
			return err
		}
		// Fault injection (if requested) wraps the raw backend so the retry
		// layer above it absorbs the injected errors exactly as it would real
		// ones; it stays disabled until boot-time restore has run clean.
		if cfg.chaos.set {
			chaos = store.NewFault(kv, cfg.chaos.cfg)
			chaos.SetEnabled(false)
			kv = chaos
		}
		if cfg.storeRetries > 1 {
			kv = store.NewRetry(kv, store.RetryOptions{Attempts: cfg.storeRetries})
		}
	}
	// One breaker guards every store consumer — session persistence and the
	// policy cache's tier 2 — so a sick disk trips them together and one
	// successful probe recovers both.
	var breaker *resilience.Breaker
	if kv != nil {
		breaker = resilience.NewBreaker(resilience.BreakerOptions{
			Threshold: cfg.breakerThreshold,
			Cooloff:   cfg.breakerCooloff,
			OnChange: func(from, to resilience.BreakerState) {
				logger.Warn("store breaker state change", "from", from.String(), "to", to.String())
			},
		})
	}

	reg := service.DefaultRegistry()
	if kv != nil {
		reg.AttachStore(kv, logger)
	}
	for _, c := range cfg.csvs {
		if err := reg.RegisterCSV(c.name, c.rPath, c.pPath); err != nil {
			return err
		}
	}
	opts := service.Options{
		TTL:            cfg.ttl,
		SweepInterval:  cfg.sweepInterval,
		Logger:         logger,
		Obs:            bundle,
		RequestTimeout: cfg.requestTimeout,
		MaxConcurrent:  cfg.maxConcurrent,
		MaxQueue:       cfg.admissionQueue,
		Store:          kv,
		StoreBreaker:   breaker,
	}
	if cfg.policyCacheBytes != 0 {
		opts.PolicyCache = joininference.NewPolicyCache(cfg.policyCacheBytes)
		if kv != nil {
			opts.PolicyCache.AttachStore(kv, 0, joininference.WithTierBreaker(breaker))
		}
	}
	mgr, err := service.NewManager(reg, opts)
	if err != nil {
		return err
	}
	if cfg.ttl > 0 {
		stop := mgr.StartJanitor(opts.JanitorInterval())
		defer stop()
	}
	for _, wf := range cfg.warms {
		if opts.PolicyCache == nil {
			return fmt.Errorf("-warm %s=%s:%d requires a policy cache (-policy-cache-bytes != 0)", wf.instance, wf.strategy, wf.depth)
		}
		start := time.Now()
		n, err := mgr.WarmPolicy(context.Background(), service.Params{Instance: wf.instance, Strategy: wf.strategy}, wf.depth)
		if err != nil {
			return fmt.Errorf("warming %s=%s:%d: %w", wf.instance, wf.strategy, wf.depth, err)
		}
		logger.Info("warmed policy tree",
			"instance", wf.instance, "strategy", wf.strategy, "depth", wf.depth,
			"nodes", n, "duration", time.Since(start).Round(time.Millisecond))
	}
	if chaos != nil {
		// Boot restore ran clean; start the drill.
		chaos.SetEnabled(true)
		logger.Warn("chaos fault injection enabled", "config", cfg.chaos.String())
	}

	server := &http.Server{
		Addr:    cfg.addr,
		Handler: newServeMux(mgr, cfg.pprof),
		// Slow-client protection: bound how long reading a request and
		// writing its response may take (crowd answers are small JSON bodies;
		// the per-request compute budget is -request-timeout, which these
		// must comfortably exceed).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       1 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", cfg.addr, "instances", len(reg.Names()))
		if err := server.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logger.Info("shutting down", "signal", sig.String())
	}

	// Graceful shutdown: finish in-flight requests (client disconnects
	// already cancel long lookaheads via the request context), then persist
	// every live session — including draining the write-behind retry queue,
	// which Close keeps retrying with backoff until the deadline.
	if chaos != nil {
		// End the drill so the final persist pass runs against the real
		// backend; a drill should never cost durable state.
		chaos.SetEnabled(false)
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
	defer cancel()
	if err := server.Shutdown(ctx); err != nil {
		logger.Error("shutdown failed", "err", err)
	}
	if err := mgr.Close(ctx); err != nil && !errors.Is(err, service.ErrClosed) {
		return err
	}
	if kv != nil && cfg.storeDir != "" {
		logger.Info("sessions persisted to store", "store_dir", cfg.storeDir)
	}
	return <-errc
}

// newServeMux mounts the service API — which itself serves the manager's
// counters at /debug/metrics, and at /metrics when the manager has an Obs
// bundle — plus, when enabled, net/http/pprof under /debug/pprof/ so live
// lookahead and CONS⋉ hot paths can be profiled in production.
func newServeMux(mgr *service.Manager, withPprof bool) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(mgr))
	if withPprof {
		// No method qualifiers: pprof.Symbol accepts lookups via GET query
		// or POST body (the form `go tool pprof` uses), and mixing
		// qualified and unqualified patterns under one prefix conflicts.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// csvFlag is one -csv name=R.csv,P.csv registration.
type csvFlag struct {
	name, rPath, pPath string
}

type csvFlags []csvFlag

func (c *csvFlags) String() string {
	parts := make([]string, len(*c))
	for i, f := range *c {
		parts[i] = fmt.Sprintf("%s=%s,%s", f.name, f.rPath, f.pPath)
	}
	return strings.Join(parts, " ")
}

func (c *csvFlags) Set(s string) error {
	name, paths, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=R.csv,P.csv, got %q", s)
	}
	rPath, pPath, ok := strings.Cut(paths, ",")
	if !ok || name == "" || rPath == "" || pPath == "" {
		return fmt.Errorf("want name=R.csv,P.csv, got %q", s)
	}
	*c = append(*c, csvFlag{name: name, rPath: rPath, pPath: pPath})
	return nil
}

// chaosFlag parses -chaos seed=N,errors=RATE,latency=DUR,latency-rate=RATE,torn=RATE
// into a store.FaultConfig. Every key is optional; rates are in [0, 1].
type chaosFlag struct {
	set bool
	cfg store.FaultConfig
}

func (c *chaosFlag) String() string {
	if !c.set {
		return ""
	}
	return fmt.Sprintf("seed=%d,errors=%g,latency=%s,latency-rate=%g,torn=%g",
		c.cfg.Seed, c.cfg.ErrorRate, c.cfg.Latency, c.cfg.LatencyRate, c.cfg.TornWriteRate)
}

func (c *chaosFlag) Set(s string) error {
	cfg := store.FaultConfig{Seed: 1}
	for _, part := range strings.Split(s, ",") {
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("want key=value, got %q", part)
		}
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "errors":
			cfg.ErrorRate, err = parseRate(val)
		case "latency":
			cfg.Latency, err = time.ParseDuration(val)
		case "latency-rate":
			cfg.LatencyRate, err = parseRate(val)
		case "torn":
			cfg.TornWriteRate, err = parseRate(val)
		default:
			return fmt.Errorf("unknown chaos key %q (want seed, errors, latency, latency-rate or torn)", key)
		}
		if err != nil {
			return fmt.Errorf("chaos %s: %w", key, err)
		}
	}
	c.set, c.cfg = true, cfg
	return nil
}

func parseRate(s string) (float64, error) {
	r, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if r < 0 || r > 1 {
		return 0, fmt.Errorf("rate must be in [0, 1], got %g", r)
	}
	return r, nil
}

// warmFlag is one -warm instance=strategy:depth request.
type warmFlag struct {
	instance string
	strategy joininference.StrategyID
	depth    int
}

type warmFlags []warmFlag

func (w *warmFlags) String() string {
	parts := make([]string, len(*w))
	for i, f := range *w {
		parts[i] = fmt.Sprintf("%s=%s:%d", f.instance, f.strategy, f.depth)
	}
	return strings.Join(parts, " ")
}

func (w *warmFlags) Set(s string) error {
	instance, rest, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want instance=strategy:depth, got %q", s)
	}
	strat, depthStr, ok := strings.Cut(rest, ":")
	if !ok || instance == "" || strat == "" {
		return fmt.Errorf("want instance=strategy:depth, got %q", s)
	}
	depth, err := strconv.Atoi(depthStr)
	if err != nil || depth < 1 {
		return fmt.Errorf("depth must be a positive integer, got %q", depthStr)
	}
	*w = append(*w, warmFlag{instance: instance, strategy: joininference.StrategyID(strat), depth: depth})
	return nil
}
