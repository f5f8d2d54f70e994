package service

import (
	"time"

	joininference "repro"
	"repro/internal/obs"
)

// Obs bundles the telemetry backends the service layer reports into: a
// metric registry (served at GET /metrics in Prometheus text form), a span
// tracer (GET /debug/trace, optional JSONL sink), and the HTTP middleware
// instruments. Construct one with NewObs, hand it to every manager via
// Options.Obs, and mount it once — managers over a shared Obs re-register
// idempotently. All of it is optional: a nil *Obs disables telemetry
// without any call-site branching.
type Obs struct {
	// Metrics is the registry behind GET /metrics; Tracer records spans for
	// GET /debug/trace (replaceable before wiring, e.g. for a larger ring).
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	// HTTP are the middleware's per-route instruments.
	HTTP *obs.HTTPMetrics

	// Pre-resolved children of the hot-path families, so an observation is
	// two atomic adds with no map lookup:
	//
	//	question_segment_seconds{segment="strategy"|"cache"|"store"}
	//	policy_pagein_seconds
	//	store_op_seconds{op="append"|"fsync"|"compact"}
	segStrategy, segCache, segStore *obs.Histogram
	pageIn                          *obs.Histogram
	opAppend, opFsync, opCompact    *obs.Histogram
	storeOps                        *obs.HistogramVec
}

// NewObs builds the service telemetry bundle: a fresh registry with the
// hot-path families pre-registered, and a tracer with the default ring
// capacity.
func NewObs() *Obs {
	o := &Obs{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(0)}
	o.HTTP = obs.NewHTTPMetrics(o.Metrics)
	seg := o.Metrics.HistogramVec("question_segment_seconds",
		"Per-question serving latency by segment: a live strategy run, a policy-cache hit, or the post-answer store persist.",
		"segment", nil)
	o.segStrategy = seg.With("strategy")
	o.segCache = seg.With("cache")
	o.segStore = seg.With("store")
	o.pageIn = o.Metrics.Histogram("policy_pagein_seconds",
		"Policy-cache tier-2 page-in latency: an LRU miss streaming a stored subtree back into RAM.", nil)
	o.storeOps = o.Metrics.HistogramVec("store_op_seconds",
		"Persistent store operation latency, by op (append, fsync, compact).", "op", nil)
	o.opAppend = o.storeOps.With("append")
	o.opFsync = o.storeOps.With("fsync")
	o.opCompact = o.storeOps.With("compact")
	return o
}

// Observe implements joininference.Telemetry: session hot paths report
// strategy/cache fetch segments here, the policy cache its page-ins. The
// event and duration are value types and the histograms pre-resolved, so
// the call allocates nothing.
func (o *Obs) Observe(ev joininference.TelemetryEvent, d time.Duration) {
	if o == nil {
		return
	}
	switch ev {
	case joininference.TelemetryStrategy:
		o.segStrategy.Observe(d.Seconds())
	case joininference.TelemetryCache:
		o.segCache.Observe(d.Seconds())
	case joininference.TelemetryPageIn:
		o.pageIn.Observe(d.Seconds())
	}
}

// StoreObserver adapts the bundle to store.LogOptions.Observe, feeding the
// store's append/fsync/compact timings into store_op_seconds. Returns nil
// on a nil receiver, which the store treats as "no telemetry".
func (o *Obs) StoreObserver() func(op string, d time.Duration) {
	if o == nil {
		return nil
	}
	return func(op string, d time.Duration) {
		switch op {
		case "append":
			o.opAppend.Observe(d.Seconds())
		case "fsync":
			o.opFsync.Observe(d.Seconds())
		case "compact":
			o.opCompact.Observe(d.Seconds())
		default:
			o.storeOps.With(op).Observe(d.Seconds())
		}
	}
}

// observeStoreSegment reports one post-answer persist duration into
// question_segment_seconds{segment="store"}.
func (o *Obs) observeStoreSegment(start time.Time) {
	if o == nil {
		return
	}
	o.segStore.ObserveSince(start)
}

// bind exposes the manager's existing counters — atomic session counters,
// registry load stats, policy-cache residency, store residency, crowd
// totals — as function-backed metrics read at exposition time, so nothing
// is counted twice. Re-binding (a fresh manager over a shared Obs, the
// restart path) replaces the previous manager's closures.
func (o *Obs) bind(m *Manager) {
	if o == nil {
		return
	}
	r := o.Metrics
	r.GaugeFunc("sessions_live", "Sessions currently resident in memory.", func() float64 {
		m.mu.Lock()
		n := len(m.sessions)
		m.mu.Unlock()
		return float64(n)
	})
	r.CounterFunc("sessions_created_total", "Sessions created.", func() float64 { return float64(m.met.created.Load()) })
	r.CounterFunc("sessions_resumed_total", "Sessions resumed (boot-time restores included).", func() float64 { return float64(m.met.resumed.Load()) })
	r.CounterFunc("sessions_evicted_total", "Sessions evicted by TTL sweeps.", func() float64 { return float64(m.met.evicted.Load()) })
	r.CounterFunc("sessions_deleted_total", "Sessions explicitly deleted.", func() float64 { return float64(m.met.deleted.Load()) })
	r.CounterFunc("questions_served_total", "Questions handed out.", func() float64 { return float64(m.met.questions.Load()) })
	r.CounterFunc("answers_applied_total", "Answers recorded (skipped answers excluded).", func() float64 { return float64(m.met.answers.Load()) })
	r.CounterFunc("deltas_ingested_total", "Deltas applied through Ingest.", func() float64 { return float64(m.met.ingests.Load()) })
	r.CounterFunc("sessions_migrated_total", "Live sessions carried onto a new instance version.", func() float64 { return float64(m.met.migrated.Load()) })
	r.CounterFunc("sessions_retired_total", "Sessions retired as inconsistent under new data.", func() float64 { return float64(m.met.retired.Load()) })
	r.CounterFunc("registry_cache_hits_total", "Instances served from the store's instance cache.", func() float64 { return float64(m.reg.Stats().CacheHits) })
	r.CounterFunc("registry_reparses_total", "Instances rebuilt from their source.", func() float64 { return float64(m.reg.Stats().Reparses) })
	r.CounterFunc("registry_deltas_replayed_total", "Delta-log records rolled forward at load time.", func() float64 { return float64(m.reg.Stats().DeltasReplayed) })
	r.CounterFunc("crowd_votes_total", "Worker votes behind committed soft answers.", func() float64 { return float64(m.crowdVotes()) })
	r.CounterFunc("soft_commits_total", "Soft-inference commit events.", func() float64 { return float64(m.crowdCommits()) })
	r.CounterFunc("soft_retractions_total", "Soft-inference retraction events.", func() float64 { return float64(m.crowdRetractions()) })
	if pc := m.opts.PolicyCache; pc != nil {
		r.CounterFunc("policy_cache_hits_total", "Policy-cache LRU hits.", func() float64 { return float64(pc.Stats().Hits) })
		r.CounterFunc("policy_cache_misses_total", "Policy-cache misses (LRU and tier 2).", func() float64 { return float64(pc.Stats().Misses) })
		r.CounterFunc("policy_cache_tier2_hits_total", "Policy-cache lookups served by the store tier.", func() float64 { return float64(pc.Stats().Tier2Hits) })
		r.CounterFunc("policy_cache_pageins_total", "Policy nodes paged in from the store tier.", func() float64 { return float64(pc.Stats().PageIns) })
		r.GaugeFunc("policy_cache_bytes", "Bytes resident in the policy cache.", func() float64 { return float64(pc.Stats().Bytes) })
		r.GaugeFunc("policy_cache_nodes", "Nodes resident in the policy cache.", func() float64 { return float64(pc.Stats().Nodes) })
		r.GaugeFunc("policy_cache_hit_ratio", "Policy-cache hit ratio (LRU + tier-2 hits over lookups) since boot.", func() float64 {
			st := pc.Stats()
			total := st.Hits + st.Misses
			if total == 0 {
				return 0
			}
			return float64(st.Hits+st.Tier2Hits) / float64(total)
		})
	}
	if kv := m.opts.Store; kv != nil {
		r.CounterFunc("store_gets_total", "Store point reads.", func() float64 { return float64(kv.Stats().Gets) })
		r.CounterFunc("store_puts_total", "Store writes.", func() float64 { return float64(kv.Stats().Puts) })
		r.CounterFunc("store_compactions_total", "Store log compactions.", func() float64 { return float64(kv.Stats().Compactions) })
		r.GaugeFunc("store_live_bytes", "Live record bytes in the store.", func() float64 { return float64(kv.Stats().LiveBytes) })
		r.GaugeFunc("store_dead_bytes", "Log garbage bytes awaiting compaction.", func() float64 { return float64(kv.Stats().DeadBytes) })
		r.GaugeFunc("store_breaker_state", "Store circuit position: 0 closed, 1 half-open, 2 open.", func() float64 {
			return float64(m.breaker.State())
		})
		r.CounterFunc("store_breaker_trips_total", "Store breaker open transitions.", func() float64 {
			t, _ := m.breaker.Counters()
			return float64(t)
		})
		r.CounterFunc("store_breaker_recoveries_total", "Store breaker close transitions after a trip.", func() float64 {
			_, rec := m.breaker.Counters()
			return float64(rec)
		})
		r.GaugeFunc("persist_queue_depth", "Sessions awaiting write-behind re-persist.", func() float64 {
			return float64(m.pq.depth())
		})
		r.CounterFunc("persist_retries_total", "Write-behind re-persist attempts.", func() float64 {
			return float64(m.pq.retries.Load())
		})
		r.CounterFunc("persist_dropped_total", "Re-persist requests refused by the bounded queue.", func() float64 {
			return float64(m.pq.drops.Load())
		})
	}
	r.GaugeFunc("degraded", "1 while any component (store, registry) is degraded.", func() float64 {
		if m.Degraded() {
			return 1
		}
		return 0
	})
	if len(m.gates) > 0 {
		inflight := r.GaugeVec("admission_inflight", "Requests holding an admission slot, by route.", "route")
		queued := r.GaugeVec("admission_queue_depth", "Requests waiting for an admission slot, by route.", "route")
		shed := r.CounterVec("admission_shed_total", "Requests shed with 429, by route.", "route")
		for _, route := range admissionRoutes {
			g := m.gates[route]
			if g == nil {
				continue
			}
			inflight.SetFunc(route, func() float64 { return float64(g.InFlight()) })
			queued.SetFunc(route, func() float64 { return float64(g.QueueDepth()) })
			shed.SetFunc(route, func() float64 { return float64(g.Shed()) })
		}
	}
}

// crowdVotes/crowdCommits/crowdRetractions read one crowd counter each
// under crowdMu, for the function-backed metrics.
func (m *Manager) crowdVotes() int64 {
	m.crowdMu.Lock()
	defer m.crowdMu.Unlock()
	return m.crowd.votes
}

func (m *Manager) crowdCommits() int64 {
	m.crowdMu.Lock()
	defer m.crowdMu.Unlock()
	return m.crowd.commits
}

func (m *Manager) crowdRetractions() int64 {
	m.crowdMu.Lock()
	defer m.crowdMu.Unlock()
	return m.crowd.retractions
}

// tracer returns the bundle's tracer (nil without one — every Tracer
// method is nil-safe).
func (m *Manager) tracer() *obs.Tracer {
	if m.opts.Obs == nil {
		return nil
	}
	return m.opts.Obs.Tracer
}
