// Package service is the transport-agnostic serving layer over the root
// joininference package: a registry of named instances, a goroutine-safe
// SessionManager with TTL eviction and disk persistence, and an HTTP/JSON
// handler (NewHandler) that cmd/joinserve mounts. Nothing here is specific
// to HTTP — the manager is equally usable behind gRPC, a message queue, or
// in-process.
package service

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	joininference "repro"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/tpch"
)

// Entry is a loaded, ready-to-serve snapshot of an instance at one version:
// the relations plus T-classes precomputed once and shared by every join
// session over it. Entries are immutable — an ingest replaces the slot's
// entry with a new one rather than mutating it, so a caller holding an
// Entry always sees a consistent (instance, classes) pair.
type Entry struct {
	// Name is the registry key.
	Name string
	// Inst is the two-relation instance, at the version current when the
	// entry was fetched.
	Inst *joininference.Instance
	// Classes are the precomputed T-classes of that version (join sessions
	// adopt them via WithPrecomputedClasses, skipping the product scan per
	// session).
	Classes *joininference.ClassSet
}

// Source lazily produces an instance; it runs at most once per registry
// entry, on first use.
type Source func() (*joininference.Instance, error)

type regSlot struct {
	src Source

	// mu serializes loading and ingests for this slot; concurrent first
	// users block on the same load.
	mu     sync.Mutex
	loaded bool
	e      *Entry
	err    error
	// updates is the in-process version history since load, oldest first:
	// updates[k] transforms version base+k into base+k+1, where base is the
	// version the slot loaded at. Live sessions pinned to an older version
	// migrate forward through it (UpdatesSince). Append-only.
	updates []*joininference.InstanceUpdate
}

// Registry maps stable names to lazily-loaded instances. All methods are
// safe for concurrent use; loading (and T-class precomputation) happens at
// most once per name, concurrent first users block on the same load.
//
// With a store attached (AttachStore), a loaded entry — tuples plus
// precomputed T-classes — is cached as one binary record keyed by name, and
// later boots decode it instead of re-parsing CSV, re-generating TPC-H, or
// re-scanning the product. Ingested deltas (Ingest) are appended to the
// store's delta log, so a boot whose cached record predates the tip replays
// the missing deltas through the incremental maintenance path instead of
// recomputing anything. Like the policy cache, a name must uniquely
// identify the instance's data; registering different data under a name
// the store has seen requires clearing the store or picking a new name.
type Registry struct {
	mu    sync.Mutex
	slots map[string]*regSlot
	kv    store.KV
	log   *slog.Logger

	met registryMetrics
}

// registryMetrics counts how entries were brought to serving state:
// cacheHits decoded the store's instance cache, reparses ran the source
// (CSV parse, TPC-H generation, product scan), deltasReplayed counts
// delta-log records rolled forward at load, ingests counts live deltas
// applied.
type registryMetrics struct {
	cacheHits, reparses, deltasReplayed, ingests atomic.Int64
}

// RegistryStats is a point-in-time snapshot of a registry's counters,
// served under /debug/metrics.
type RegistryStats struct {
	// CacheHits counts entries served from the store's instance cache;
	// Reparses counts entries built from their source (first ever load, or
	// a corrupt/version-skewed cache record).
	CacheHits int64 `json:"cache_hits"`
	Reparses  int64 `json:"reparses"`
	// DeltasReplayed counts delta-log records rolled forward at load time;
	// Ingests counts deltas applied live.
	DeltasReplayed int64 `json:"deltas_replayed"`
	Ingests        int64 `json:"ingests"`
}

// Failed returns the names of entries whose one-shot load failed (the
// error sticks until restart — see loadLocked), sorted. Slots mid-load are
// skipped without blocking: loading is not failure, and health probes must
// never queue behind a TPC-H generation.
func (r *Registry) Failed() []string {
	r.mu.Lock()
	slots := make(map[string]*regSlot, len(r.slots))
	for name, s := range r.slots {
		slots[name] = s
	}
	r.mu.Unlock()
	var out []string
	for name, s := range slots {
		if !s.mu.TryLock() {
			continue
		}
		if s.loaded && s.err != nil {
			out = append(out, name)
		}
		s.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Stats returns the registry's counters.
func (r *Registry) Stats() RegistryStats {
	return RegistryStats{
		CacheHits:      r.met.cacheHits.Load(),
		Reparses:       r.met.reparses.Load(),
		DeltasReplayed: r.met.deltasReplayed.Load(),
		Ingests:        r.met.ingests.Load(),
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{slots: make(map[string]*regSlot)} }

// Register adds a named source; registering a duplicate name is an error.
func (r *Registry) Register(name string, src Source) error {
	if name == "" {
		return fmt.Errorf("service: instance name must be non-empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.slots[name]; ok {
		return fmt.Errorf("service: instance %q already registered", name)
	}
	r.slots[name] = &regSlot{src: src}
	return nil
}

// RegisterInstance registers an already-built instance (e.g. for tests).
func (r *Registry) RegisterInstance(name string, inst *joininference.Instance) error {
	return r.Register(name, func() (*joininference.Instance, error) { return inst, nil })
}

// RegisterCSV registers a pair of CSV files loaded on first use.
func (r *Registry) RegisterCSV(name, rPath, pPath string) error {
	return r.Register(name, func() (*joininference.Instance, error) {
		if _, err := os.Stat(rPath); err != nil {
			return nil, fmt.Errorf("service: instance %q: %w", name, err)
		}
		if _, err := os.Stat(pPath); err != nil {
			return nil, fmt.Errorf("service: instance %q: %w", name, err)
		}
		return joininference.LoadCSV(rPath, pPath)
	})
}

// RegisterTPCH registers one of the paper's five TPC-H goal joins,
// generated deterministically on first use.
func (r *Registry) RegisterTPCH(name string, j tpch.Join, multiplier int, seed int64) error {
	return r.Register(name, func() (*joininference.Instance, error) {
		d, err := tpch.Generate(multiplier, seed)
		if err != nil {
			return nil, err
		}
		inst, _, err := d.Instance(j)
		return inst, err
	})
}

// RegisterSynth registers a synthetic instance (Section 5.2 generator),
// generated deterministically on first use.
func (r *Registry) RegisterSynth(name string, cfg synth.Config, seed int64) error {
	return r.Register(name, func() (*joininference.Instance, error) {
		return synth.Generate(cfg, seed)
	})
}

// ErrUnknownInstance is wrapped by Get for names never registered.
var ErrUnknownInstance = fmt.Errorf("service: unknown instance")

// ErrBadDelta wraps delta validation failures (arity mismatch, out-of-range
// or double deletes) reported by Ingest.
var ErrBadDelta = errors.New("service: bad delta")

// AttachStore caches loaded entries in the KV store. Attach before first
// use (wiring happens at boot); log receives cache diagnostics as
// structured records, nil discards them.
func (r *Registry) AttachStore(kv store.KV, log *slog.Logger) {
	r.mu.Lock()
	r.kv = kv
	r.log = obs.OrDiscard(log)
	r.mu.Unlock()
}

// slot resolves a name to its slot plus the store wiring, without loading.
func (r *Registry) slot(name string) (*regSlot, store.KV, *slog.Logger, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot, ok := r.slots[name]
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w: %q", ErrUnknownInstance, name)
	}
	return slot, r.kv, obs.OrDiscard(r.log), nil
}

// Get loads (once) and returns the named entry at its current version: from
// the store cache when attached and populated, else from the source (and
// then into the cache) — in both cases rolled forward through any delta-log
// records newer than the loaded version.
func (r *Registry) Get(name string) (*Entry, error) {
	slot, kv, log, err := r.slot(name)
	if err != nil {
		return nil, err
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	r.loadLocked(slot, name, kv, log)
	return slot.e, slot.err
}

// loadLocked brings a slot to serving state; callers hold slot.mu. The
// load is attempted once: a source or delta-log failure sticks (retrying
// cannot help and hammering a broken source per request helps less).
func (r *Registry) loadLocked(slot *regSlot, name string, kv store.KV, log *slog.Logger) {
	if slot.loaded {
		return
	}
	slot.loaded = true
	var inst *joininference.Instance
	var cs *joininference.ClassSet
	if kv != nil {
		if data, ok, err := kv.Get(store.RegistryKey(name)); err == nil && ok {
			if i, c, err := joininference.DecodeInstanceCache(data); err == nil {
				inst, cs = i, c
				r.met.cacheHits.Add(1)
			} else {
				// A corrupt cache record falls back to the source — it will
				// be overwritten below.
				log.Warn("instance cache record rejected", "instance", name, "err", err)
			}
		}
	}
	fromCache := inst != nil
	if inst == nil {
		i, err := slot.src()
		if err != nil {
			slot.err = err
			return
		}
		inst, cs = i, joininference.PrecomputeClasses(i)
		r.met.reparses.Add(1)
	}
	// Roll forward through delta-log records past the loaded version. Each
	// replay runs the same incremental maintenance path a live ingest does,
	// so a restored instance is bit-identical to the one that served before
	// the restart. A gap or corrupt record is an error, not a fallback: the
	// log is the only record of ingested rows, and serving without them
	// would silently fork the history.
	replayed := 0
	if kv != nil {
		err := store.ReplayDeltaLog(kv, name, inst.Version(), func(version int64, d joininference.Delta) error {
			upd, err := joininference.ApplyDelta(inst, cs, d)
			if err != nil {
				return err
			}
			inst, cs = upd.To, upd.Classes
			replayed++
			return nil
		})
		if err != nil {
			slot.err = fmt.Errorf("service: replaying delta log for %q: %w", name, err)
			return
		}
		r.met.deltasReplayed.Add(int64(replayed))
	}
	slot.e = &Entry{Name: name, Inst: inst, Classes: cs}
	if kv != nil && (!fromCache || replayed > 0) {
		// Advance the cached record to the tip so the next boot decodes and
		// replays nothing.
		if err := kv.Put(store.RegistryKey(name), joininference.EncodeInstanceCache(inst, cs)); err != nil {
			log.Warn("caching instance failed", "instance", name, "err", err)
		}
	}
}

// Ingest applies one delta to the named instance: the data moves to the
// next version, the T-classes are maintained incrementally, the delta is
// appended to the store's log (when one is attached) and the cached entry
// record is advanced. The returned update carries everything downstream
// layers need to follow — Session.ApplyUpdate for live sessions,
// PolicyCache.ApplyUpdate for memoized decision trees. Validation failures
// wrap ErrBadDelta; nothing changes on error.
func (r *Registry) Ingest(name string, d joininference.Delta) (*joininference.InstanceUpdate, error) {
	slot, kv, log, err := r.slot(name)
	if err != nil {
		return nil, err
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	r.loadLocked(slot, name, kv, log)
	if slot.err != nil {
		return nil, slot.err
	}
	upd, err := joininference.ApplyDelta(slot.e.Inst, slot.e.Classes, d)
	if err != nil {
		if errors.Is(err, joininference.ErrStaleVersion) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	if kv != nil {
		// Store failures are logged, not fatal: the in-memory chain has
		// already advanced (the version history is linear and cannot be
		// rewound), and wedging the slot over a persistence error would take
		// live serving down with it.
		if err := store.AppendDelta(kv, name, upd.Version(), upd.Delta); err != nil {
			log.Warn("persisting delta failed", "instance", name, "err", err)
		}
		if err := kv.Put(store.RegistryKey(name), joininference.EncodeInstanceCache(upd.To, upd.Classes)); err != nil {
			log.Warn("caching instance failed", "instance", name, "err", err)
		}
	}
	slot.e = &Entry{Name: name, Inst: upd.To, Classes: upd.Classes}
	slot.updates = append(slot.updates, upd)
	r.met.ingests.Add(1)
	return upd, nil
}

// UpdatesSince returns the updates transforming version v of the named
// instance into its current tip, oldest first (empty when v is the tip).
// The history window starts at the version the slot loaded at; asking for
// anything outside [base, tip] is an error.
func (r *Registry) UpdatesSince(name string, v int64) ([]*joininference.InstanceUpdate, error) {
	slot, _, _, err := r.slot(name)
	if err != nil {
		return nil, err
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if !slot.loaded || slot.err != nil || slot.e == nil {
		return nil, nil
	}
	tip := slot.e.Inst.Version()
	base := tip - int64(len(slot.updates))
	if v < base || v > tip {
		return nil, fmt.Errorf("service: instance %q version %d outside the update window [%d, %d]", name, v, base, tip)
	}
	// slot.updates is append-only, so handing out a sub-slice is safe.
	return slot.updates[v-base:], nil
}

// Names returns the registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.slots))
	for n := range r.slots {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DefaultRegistry returns a registry preloaded with the paper's workloads:
// the five TPC-H goal joins at multiplier 1 ("tpch-join1" … "tpch-join5")
// and the six synthetic Figure 7 configurations ("synth-1" … "synth-6"),
// all at seed 1. Everything is lazy — nothing is generated until a session
// is created over it.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	for _, j := range tpch.AllJoins() {
		// Registration cannot fail on fresh names; ignore the nil error.
		_ = r.RegisterTPCH(fmt.Sprintf("tpch-join%d", int(j)), j, 1, 1)
	}
	for i, cfg := range synth.PaperConfigs() {
		_ = r.RegisterSynth(fmt.Sprintf("synth-%d", i+1), cfg, 1)
	}
	return r
}
