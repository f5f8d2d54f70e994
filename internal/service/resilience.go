package service

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
	"repro/internal/store"
)

// Admission routes: the compute-heavy endpoints each get their own gate so
// a flood of lookahead-heavy question fetches cannot starve answer
// submissions (which carry paid crowd work) of slots.
const (
	routeCreate    = "create"
	routeQuestions = "questions"
	routeAnswers   = "answers"
	routeIngest    = "ingest"
)

var admissionRoutes = []string{routeCreate, routeQuestions, routeAnswers, routeIngest}

// gateFor returns the admission gate for a route ("" / unknown routes and
// an unconfigured manager return nil = unlimited).
func (m *Manager) gateFor(route string) *resilience.Gate {
	return m.gates[route]
}

// persistQueue is the write-behind retry queue: session ids whose store
// persist failed (or was skipped by an open breaker) wait here for the
// background worker to re-persist them. Bounded and deduplicated — a
// session already queued is not queued twice, and when the queue is full
// the newest id is dropped (counted); the session's RAM copy remains the
// source of truth and every later answer re-queues it, so a drop delays
// durability, never loses state.
type persistQueue struct {
	mu      sync.Mutex
	pending []string
	member  map[string]bool
	limit   int

	drops   atomic.Int64
	retries atomic.Int64

	// wake nudges the worker when work arrives; 1-buffered so an add never
	// blocks.
	wake chan struct{}
}

func newPersistQueue(limit int) *persistQueue {
	if limit <= 0 {
		limit = 1024
	}
	return &persistQueue{
		member: make(map[string]bool),
		limit:  limit,
		wake:   make(chan struct{}, 1),
	}
}

// add queues a session id for re-persist; reports whether it was queued
// (false = duplicate or dropped).
func (q *persistQueue) add(id string) bool {
	q.mu.Lock()
	if q.member[id] {
		q.mu.Unlock()
		return true // already pending; the retry will pick up the newest state
	}
	if len(q.pending) >= q.limit {
		q.mu.Unlock()
		q.drops.Add(1)
		return false
	}
	q.member[id] = true
	q.pending = append(q.pending, id)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return true
}

// pop removes and returns the oldest queued id.
func (q *persistQueue) pop() (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		return "", false
	}
	id := q.pending[0]
	q.pending = q.pending[1:]
	delete(q.member, id)
	return id, true
}

func (q *persistQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// startPersistWorker runs the write-behind loop: pop a queued session,
// wait out the breaker if it is open (its retry attempts are the breaker's
// half-open probes), re-persist, and back off between failures. Returns a
// stop func; the worker also exits when stop's channel closes mid-sleep.
func (m *Manager) startPersistWorker() (stop func()) {
	done := make(chan struct{})
	go func() {
		bo := resilience.Backoff{Base: 25 * time.Millisecond, Max: time.Second}
		attempt := 0
		sleep := func(d time.Duration) bool {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return true
			case <-done:
				return false
			}
		}
		for {
			id, ok := m.pq.pop()
			if !ok {
				select {
				case <-m.pq.wake:
					continue
				case <-done:
					return
				}
			}
			if !m.breaker.Allow() {
				// Open breaker: hold the id and wait out (part of) the
				// cool-off; the next pass becomes the half-open probe.
				m.pq.add(id)
				if !sleep(bo.Delay(attempt, nil)) {
					return
				}
				attempt++
				continue
			}
			m.pq.retries.Add(1)
			switch m.repersist(id) {
			case persistOK, persistGone:
				attempt = 0
			case persistUnsnapshotable:
				// A session-state problem, not store health: retrying cannot
				// heal it, so drop the id instead of re-queueing forever (a
				// permanently non-empty queue would report the node degraded
				// over a non-store fault). The RAM copy keeps serving and any
				// later answer re-queues a fresh snapshot attempt.
				m.log.Error("dropping unsnapshotable session from persist retry queue", "session", id)
				attempt = 0
			case persistBusy:
				// The session is mid-operation; its own completion path will
				// persist. Re-queue cheaply and yield.
				m.pq.add(id)
				if !sleep(5 * time.Millisecond) {
					return
				}
			case persistFailed:
				m.pq.add(id)
				if !sleep(bo.Delay(attempt, nil)) {
					return
				}
				attempt++
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

type persistOutcome int

const (
	persistOK persistOutcome = iota
	persistGone
	persistBusy
	persistFailed
	persistUnsnapshotable
)

// repersist re-persists one queued session by id. The caller's Allow()
// already admitted this attempt (in half-open, as the single probe), so
// every path that does not reach the store must CancelProbe — otherwise
// a busy or deleted session would leak the probe and wedge the breaker
// half-open permanently.
func (m *Manager) repersist(id string) persistOutcome {
	m.mu.Lock()
	ms := m.sessions[id]
	m.mu.Unlock()
	if ms == nil {
		// Deleted or already evicted post-persist; nothing to save (eviction
		// only happens after a successful persist).
		m.breaker.CancelProbe()
		return persistGone
	}
	if !ms.mu.TryLock() {
		m.breaker.CancelProbe()
		return persistBusy
	}
	defer ms.mu.Unlock()
	if ms.gone {
		m.breaker.CancelProbe()
		return persistGone
	}
	// Direct, not breaker-gated: the worker loop's Allow() already took the
	// slot (in half-open, the single probe) — re-checking here would consume
	// the probe without ever resolving it, wedging the breaker half-open.
	return m.persistStoreDirect(ms)
}

// persistStoreDirect writes the record unconditionally (no breaker gate —
// used by shutdown drain and half-open probes via persistLocked),
// still reporting the outcome to the breaker. Callers hold ms.mu.
func (m *Manager) persistStoreDirect(ms *managed) persistOutcome {
	snap, err := ms.snapshotLocked()
	if err != nil {
		// A snapshot failure is a session-state problem, not store health:
		// the store was never touched, so release the probe this admission
		// may have been instead of leaking it (which would wedge the breaker
		// half-open).
		m.breaker.CancelProbe()
		m.log.Warn("snapshotting session failed", "session", ms.id, "err", err)
		return persistUnsnapshotable
	}
	if err := m.opts.Store.Put(store.SessionKey(ms.id), encodeServiceSnapshot(snap)); err != nil {
		m.breaker.Failure(err)
		m.pq.add(ms.id)
		m.log.Warn("persisting session failed; queued for retry",
			"session", ms.id, "err", err, "queue_depth", m.pq.depth())
		return persistFailed
	}
	m.breaker.Success()
	return persistOK
}

// Health is the /readyz report: overall status plus per-component detail.
// Status is "ok" or "degraded"; degraded nodes keep serving (sessions run
// from live compute and RAM) but operators and load balancers should
// prefer healthy peers.
type Health struct {
	Status   string           `json:"status"`
	Store    *StoreHealth     `json:"store,omitempty"`
	Registry *ComponentHealth `json:"registry,omitempty"`
	Restore  *ComponentHealth `json:"restore,omitempty"`
}

// StoreHealth reports the persistence tier: breaker position, failure
// streak, and the write-behind queue.
type StoreHealth struct {
	Status string `json:"status"`
	// Breaker is the circuit position: closed, half-open, or open.
	Breaker string `json:"breaker"`
	// ConsecutiveFailures is the current failure streak feeding the breaker.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// QueueDepth is how many sessions await re-persist; Retries counts
	// worker re-persist attempts; Dropped counts ids the bounded queue
	// refused (delayed durability, not data loss).
	QueueDepth int   `json:"queue_depth"`
	Retries    int64 `json:"retries,omitempty"`
	Dropped    int64 `json:"dropped,omitempty"`
	// Trips / Recoveries count breaker open and close transitions.
	Trips      int64 `json:"trips,omitempty"`
	Recoveries int64 `json:"recoveries,omitempty"`
	// LastError is the most recent store failure ("" when healthy).
	LastError string `json:"last_error,omitempty"`
}

// ComponentHealth is a simple status + detail pair.
type ComponentHealth struct {
	Status string `json:"status"`
	Detail string `json:"detail,omitempty"`
}

// degradedQueueDepth is how many pending re-persists it takes to degrade
// /readyz while the breaker is still closed. A closed breaker with a short
// queue is a node absorbing transient faults as designed; flipping
// readiness over every blip (and back when the worker drains one id)
// would churn load balancers over a healthy node.
const degradedQueueDepth = 16

// Health reports the node's serving health. The store is degraded while
// its breaker is not closed or the re-persist backlog is substantial
// (>= degradedQueueDepth); the registry while any instance load has stuck
// in error. Boot-restore failures are reported ("incomplete") but do not
// degrade the node forever — the snapshots are gone, flapping /readyz over
// them helps no one.
func (m *Manager) Health() Health {
	h := Health{Status: "ok"}
	if m.opts.Store != nil {
		trips, recoveries := m.breaker.Counters()
		sh := &StoreHealth{
			Status:              "ok",
			Breaker:             m.breaker.State().String(),
			ConsecutiveFailures: m.breaker.ConsecutiveFailures(),
			QueueDepth:          m.pq.depth(),
			Retries:             m.pq.retries.Load(),
			Dropped:             m.pq.drops.Load(),
			Trips:               trips,
			Recoveries:          recoveries,
			LastError:           m.breaker.LastError(),
		}
		if sh.Breaker != "closed" || sh.QueueDepth >= degradedQueueDepth {
			sh.Status = "degraded"
			h.Status = "degraded"
		}
		h.Store = sh
	}
	if failed := m.reg.Failed(); len(failed) > 0 {
		h.Registry = &ComponentHealth{Status: "degraded", Detail: "failed instance loads: " + strings.Join(failed, ", ")}
		h.Status = "degraded"
	} else {
		h.Registry = &ComponentHealth{Status: "ok"}
	}
	if n := m.restoreFails.Load(); n > 0 {
		h.Restore = &ComponentHealth{Status: "incomplete", Detail: fmt.Sprintf("%d persisted session(s) failed to restore", n)}
	} else {
		h.Restore = &ComponentHealth{Status: "ok"}
	}
	return h
}

// Degraded reports whether the node is currently degraded (the `degraded`
// gauge reads this).
func (m *Manager) Degraded() bool { return m.Health().Status != "ok" }

// ResilienceMetrics is the "resilience" section of /debug/metrics: breaker
// position and transition counts, the write-behind queue, and per-route
// admission gates.
type ResilienceMetrics struct {
	BreakerState       string             `json:"breaker_state"`
	BreakerTrips       int64              `json:"breaker_trips"`
	BreakerRecoveries  int64              `json:"breaker_recoveries"`
	PersistQueueDepth  int                `json:"persist_queue_depth"`
	PersistRetries     int64              `json:"persist_retries"`
	PersistDropped     int64              `json:"persist_dropped"`
	RestoreFailures    int64              `json:"restore_failures,omitempty"`
	Admission          []AdmissionMetrics `json:"admission,omitempty"`
	Degraded           bool               `json:"degraded"`
	StoreLastError     string             `json:"store_last_error,omitempty"`
	ConsecutiveFailure int                `json:"consecutive_failures,omitempty"`
}

// AdmissionMetrics is one route's gate counters.
type AdmissionMetrics struct {
	Route    string `json:"route"`
	InFlight int64  `json:"in_flight"`
	Queued   int64  `json:"queued"`
	Shed     int64  `json:"shed"`
	Admitted int64  `json:"admitted"`
}

// resilienceMetrics snapshots the resilience state for Metrics(); nil when
// neither a store nor admission control is configured.
func (m *Manager) resilienceMetrics() *ResilienceMetrics {
	if m.opts.Store == nil && len(m.gates) == 0 {
		return nil
	}
	out := &ResilienceMetrics{BreakerState: m.breaker.State().String()}
	if m.opts.Store != nil {
		out.BreakerTrips, out.BreakerRecoveries = m.breaker.Counters()
		out.PersistQueueDepth = m.pq.depth()
		out.PersistRetries = m.pq.retries.Load()
		out.PersistDropped = m.pq.drops.Load()
		out.StoreLastError = m.breaker.LastError()
		out.ConsecutiveFailure = m.breaker.ConsecutiveFailures()
	}
	out.RestoreFailures = m.restoreFails.Load()
	out.Degraded = m.Degraded()
	for _, route := range admissionRoutes {
		if g := m.gates[route]; g != nil {
			out.Admission = append(out.Admission, AdmissionMetrics{
				Route:    route,
				InFlight: g.InFlight(),
				Queued:   g.QueueDepth(),
				Shed:     g.Shed(),
				Admitted: g.Admitted(),
			})
		}
	}
	return out
}
