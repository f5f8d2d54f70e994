package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	joininference "repro"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/synth"
)

// serveMain is the server process: the joinserve stack composed from the
// same constructors and defaults as cmd/joinserve's run() (log store with
// its default flush policy, retrying store wrapper, one breaker, policy
// cache with a store tier, 256-span trace ring, 30 s request timeout, 30 m
// TTL with janitor, info access log to stderr). With -traced it adds the
// benchmark's own measuring wrappers at the seams the stack takes from its
// caller, and a span sink. It preloads every registered instance, prints
// "ready <addr>" and serves until SIGTERM or stdin closes.
func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	storeDir := fs.String("store-dir", "", "log store directory (fresh)")
	policyBytes := fs.Int64("policy-cache-bytes", 64<<20, "policy cache byte bound (0 disables)")
	traced := fs.Bool("traced", false, "add the benchmark's measuring wrappers and span sink")
	withDefault := fs.Bool("default-registry", false, "register service.DefaultRegistry's instances")
	var synths []string
	fs.Func("synth", "register a synthetic instance name=attrsR,attrsP,rows,values@seed (repeatable)", func(s string) error {
		synths = append(synths, s)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return errors.New("serve: -store-dir is required")
	}
	// Catch SIGTERM before announcing readiness: the load generator may stop a
	// server the moment it is ready.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	logger := obs.NewLogger(os.Stderr, "text", slog.LevelInfo)
	bundle := service.NewObs()
	bundle.Tracer = obs.NewTracer(256)
	m := newMeter(*traced)
	if *traced {
		bundle.Tracer.SetSink(m.spans)
	}
	raw, err := store.OpenLog(*storeDir, store.LogOptions{Observe: bundle.StoreObserver()})
	if err != nil {
		return err
	}
	defer raw.Close()
	if err := store.EnsureFormat(raw); err != nil {
		return err
	}
	kv := store.KV(store.NewRetry(raw, store.RetryOptions{Attempts: 3}))
	breaker := resilience.NewBreaker(resilience.BreakerOptions{
		Threshold: 5,
		Cooloff:   5 * time.Second,
		OnChange: func(from, to resilience.BreakerState) {
			logger.Warn("store breaker state change", "from", from.String(), "to", to.String())
		},
	})

	reg := service.NewRegistry()
	if *withDefault {
		reg = service.DefaultRegistry()
	}
	for _, s := range synths {
		name, cfg, seed, err := parseSynth(s)
		if err != nil {
			return err
		}
		if err := reg.RegisterSynth(name, cfg, seed); err != nil {
			return err
		}
	}
	reg.AttachStore(m.kv("registry", kv), logger)
	opts := service.Options{
		TTL:            30 * time.Minute,
		Logger:         logger,
		Obs:            bundle,
		RequestTimeout: 30 * time.Second,
		Store:          m.kv("session", kv),
		StoreBreaker:   breaker,
	}
	if *policyBytes != 0 {
		opts.PolicyCache = joininference.NewPolicyCache(*policyBytes)
		opts.PolicyCache.AttachStore(m.kv("policy", kv), 0, joininference.WithTierBreaker(breaker))
	}
	mgr, err := service.NewManager(reg, opts)
	if err != nil {
		return err
	}
	stopJanitor := mgr.StartJanitor(opts.JanitorInterval())
	defer stopJanitor()

	// Preload: the first Registry.Get of each instance generates it and
	// precomputes its T-classes.
	loads := map[string]float64{}
	for _, name := range reg.Names() {
		start := time.Now()
		if _, err := reg.Get(name); err != nil {
			return fmt.Errorf("loading %s: %w", name, err)
		}
		loads[name] = float64(time.Since(start).Nanoseconds()) / 1e6
	}

	mux := http.NewServeMux()
	mux.Handle("/", m.handler(service.NewHandler(mgr)))
	mux.HandleFunc("GET /bench/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(m.stats(mgr, bundle, loads))
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	server := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() {
		if err := server.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	fmt.Printf("ready %s\n", ln.Addr())

	// Stop on SIGTERM, or when the load generator's end of stdin closes (it
	// died without signalling).
	stdinGone := make(chan struct{})
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := os.Stdin.Read(buf); err != nil {
				close(stdinGone)
				return
			}
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-sigc:
	case <-stdinGone:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := server.Shutdown(ctx); err != nil {
		return err
	}
	if err := mgr.Close(ctx); err != nil && !errors.Is(err, service.ErrClosed) {
		return err
	}
	return <-errc
}

// parseSynth parses name=attrsR,attrsP,rows,values@seed.
func parseSynth(s string) (string, synth.Config, int64, error) {
	var cfg synth.Config
	var seed int64
	name, spec, ok := strings.Cut(s, "=")
	if ok {
		_, err := fmt.Sscanf(spec, "%d,%d,%d,%d@%d", &cfg.AttrsR, &cfg.AttrsP, &cfg.Rows, &cfg.Values, &seed)
		ok = err == nil
	}
	if !ok || name == "" {
		return "", cfg, 0, fmt.Errorf("serve: want -synth name=attrsR,attrsP,rows,values@seed, got %q", s)
	}
	return name, cfg, seed, nil
}

// meter holds the benchmark's measuring wrappers. Untraced, every wrapper
// is the identity and the stack is exactly joinserve's.
type meter struct {
	on     bool
	routes sync.Map // route -> *routeMeter
	kvs    sync.Map // consumer -> *kvMeter
	spans  *spanSink
}

func newMeter(on bool) *meter { return &meter{on: on, spans: newSpanSink()} }

// routeMeter accumulates handler time and response bytes of one route.
type routeMeter struct {
	count, nanos, bytes atomic.Int64
}

// routeOf names a request by the API route it addresses.
func routeOf(method, path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case method == http.MethodPost && path == "/sessions":
		return "create"
	case len(parts) == 3 && parts[0] == "sessions":
		return parts[2] // questions, answers, predicate, explain, snapshot
	case len(parts) == 3 && parts[0] == "instances" && parts[2] == "rows":
		return "ingest"
	default:
		return "other"
	}
}

func (m *meter) route(name string) *routeMeter {
	if v, ok := m.routes.Load(name); ok {
		return v.(*routeMeter)
	}
	v, _ := m.routes.LoadOrStore(name, &routeMeter{})
	return v.(*routeMeter)
}

// handler times the whole service handler (middleware, mux, codec,
// manager) per route and counts the bytes it writes.
func (m *meter) handler(next http.Handler) http.Handler {
	if !m.on {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rm := m.route(routeOf(r.Method, r.URL.Path))
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		rm.nanos.Add(int64(time.Since(start)))
		rm.count.Add(1)
		rm.bytes.Add(cw.n)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// kvMeter times one consumer's store operations.
type kvMeter struct {
	store.KV
	puts, putNanos, putBytes atomic.Int64
	gets, getNanos           atomic.Int64
	scans, scanNanos         atomic.Int64
	dels, delNanos           atomic.Int64
	batches, batchNanos      atomic.Int64
}

func (m *meter) kv(consumer string, kv store.KV) store.KV {
	if !m.on {
		return kv
	}
	km := &kvMeter{KV: kv}
	m.kvs.Store(consumer, km)
	return km
}

func (k *kvMeter) Get(key []byte) ([]byte, bool, error) {
	start := time.Now()
	v, ok, err := k.KV.Get(key)
	k.getNanos.Add(int64(time.Since(start)))
	k.gets.Add(1)
	return v, ok, err
}

func (k *kvMeter) Put(key, value []byte) error {
	start := time.Now()
	err := k.KV.Put(key, value)
	k.putNanos.Add(int64(time.Since(start)))
	k.puts.Add(1)
	k.putBytes.Add(int64(len(key) + len(value)))
	return err
}

func (k *kvMeter) Delete(key []byte) error {
	start := time.Now()
	err := k.KV.Delete(key)
	k.delNanos.Add(int64(time.Since(start)))
	k.dels.Add(1)
	return err
}

func (k *kvMeter) Scan(prefix []byte, fn func(key, value []byte) bool) error {
	start := time.Now()
	err := k.KV.Scan(prefix, fn)
	k.scanNanos.Add(int64(time.Since(start)))
	k.scans.Add(1)
	return err
}

func (k *kvMeter) Batch(ops []store.Op) error {
	start := time.Now()
	err := k.KV.Batch(ops)
	k.batchNanos.Add(int64(time.Since(start)))
	k.batches.Add(1)
	for _, op := range ops {
		k.putBytes.Add(int64(len(op.Key) + len(op.Value)))
	}
	return err
}

// spanSink aggregates the spans the tracer streams, by name and by
// session, decoding each JSON line as it arrives.
type spanSink struct {
	mu       sync.Mutex
	byName   map[string]*spanAgg
	sessions map[string]*sessionSpans
}

type spanAgg struct {
	Count int64 `json:"count"`
	Nanos int64 `json:"nanos"`
}

// sessionSpans totals one session's manager spans.
type sessionSpans struct {
	Questions spanAgg `json:"questions"`
	Answers   spanAgg `json:"answers"`
}

func newSpanSink() *spanSink {
	return &spanSink{byName: map[string]*spanAgg{}, sessions: map[string]*sessionSpans{}}
}

func (s *spanSink) Write(b []byte) (int, error) {
	var sp obs.Span
	if err := json.Unmarshal(b, &sp); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.byName[sp.Name]
	if a == nil {
		a = &spanAgg{}
		s.byName[sp.Name] = a
	}
	a.Count++
	a.Nanos += int64(sp.Duration)
	if sp.Session != "" {
		ss := s.sessions[sp.Session]
		if ss == nil {
			ss = &sessionSpans{}
			s.sessions[sp.Session] = ss
		}
		switch sp.Name {
		case "session.questions":
			ss.Questions.Count++
			ss.Questions.Nanos += int64(sp.Duration)
		case "session.answers":
			ss.Answers.Count++
			ss.Answers.Nanos += int64(sp.Duration)
		}
	}
	return len(b), nil
}

// serverStats is GET /bench/stats: cumulative counters the load generator reads
// before and after the timed window and subtracts.
type serverStats struct {
	Routes   map[string]routeStat    `json:"routes"`
	KV       map[string]kvStat       `json:"kv"`
	Spans    map[string]spanAgg      `json:"spans"`
	Sessions map[string]sessionSpans `json:"sessions"`
	// Segments are question_segment_seconds sums and counts by segment
	// (strategy, cache, store).
	Segments map[string]histStat `json:"segments"`
	Manager  service.Metrics     `json:"manager"`
	Runtime  runtimeStat         `json:"runtime"`
	LoadMs   map[string]float64  `json:"load_ms"`
}

type routeStat struct {
	Count int64 `json:"count"`
	Nanos int64 `json:"nanos"`
	Bytes int64 `json:"bytes"`
}

type kvStat struct {
	Puts       int64 `json:"puts"`
	PutNanos   int64 `json:"put_nanos"`
	PutBytes   int64 `json:"put_bytes"`
	Gets       int64 `json:"gets"`
	GetNanos   int64 `json:"get_nanos"`
	Scans      int64 `json:"scans"`
	ScanNanos  int64 `json:"scan_nanos"`
	Deletes    int64 `json:"deletes"`
	DelNanos   int64 `json:"delete_nanos"`
	Batches    int64 `json:"batches"`
	BatchNanos int64 `json:"batch_nanos"`
}

func (k kvStat) nanos() int64 {
	return k.PutNanos + k.GetNanos + k.ScanNanos + k.DelNanos + k.BatchNanos
}

type histStat struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
}

type runtimeStat struct {
	Mallocs      uint64 `json:"mallocs"`
	AllocBytes   uint64 `json:"alloc_bytes"`
	PauseTotalNs uint64 `json:"pause_total_ns"`
	NumGC        uint32 `json:"num_gc"`
}

func (m *meter) stats(mgr *service.Manager, bundle *service.Obs, loads map[string]float64) serverStats {
	out := serverStats{
		Routes:   map[string]routeStat{},
		KV:       map[string]kvStat{},
		Spans:    map[string]spanAgg{},
		Sessions: map[string]sessionSpans{},
		Segments: map[string]histStat{},
		Manager:  mgr.Metrics(),
		LoadMs:   loads,
	}
	m.routes.Range(func(k, v any) bool {
		rm := v.(*routeMeter)
		out.Routes[k.(string)] = routeStat{Count: rm.count.Load(), Nanos: rm.nanos.Load(), Bytes: rm.bytes.Load()}
		return true
	})
	m.kvs.Range(func(k, v any) bool {
		km := v.(*kvMeter)
		out.KV[k.(string)] = kvStat{
			Puts: km.puts.Load(), PutNanos: km.putNanos.Load(), PutBytes: km.putBytes.Load(),
			Gets: km.gets.Load(), GetNanos: km.getNanos.Load(),
			Scans: km.scans.Load(), ScanNanos: km.scanNanos.Load(),
			Deletes: km.dels.Load(), DelNanos: km.delNanos.Load(),
			Batches: km.batches.Load(), BatchNanos: km.batchNanos.Load(),
		}
		return true
	})
	m.spans.mu.Lock()
	for k, v := range m.spans.byName {
		out.Spans[k] = *v
	}
	for k, v := range m.spans.sessions {
		out.Sessions[k] = *v
	}
	m.spans.mu.Unlock()
	seg := bundle.Metrics.HistogramVec("question_segment_seconds", "", "segment", nil)
	for _, name := range []string{"strategy", "cache", "store"} {
		snap := seg.With(name).Snapshot()
		out.Segments[name] = histStat{Count: snap.Count, Sum: snap.Sum}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.Runtime = runtimeStat{Mallocs: ms.Mallocs, AllocBytes: ms.TotalAlloc, PauseTotalNs: ms.PauseTotalNs, NumGC: ms.NumGC}
	return out
}
