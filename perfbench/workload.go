package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	joininference "repro"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/tpch"
)

// workload is one traffic mix the benchmark can run.
type workload struct {
	name string
	// open selects an open loop: sessions arrive at rate per second
	// whatever the server's speed, and each request is timed from when it
	// was due. A closed loop runs one session per client back to back.
	open bool
	rate float64
	// think is the mean of the exponential pause between a session's
	// requests (open loop only).
	think time.Duration
	// deltaRate is the rate of ingest deltas per second (0: none).
	deltaRate float64
	// policyCacheBytes is the server's -policy-cache-bytes (0 disables).
	policyCacheBytes int64
	// warm replays every (instance, strategy, goal, k) combination of the
	// mix once during setup so the policy cache is warm.
	warm bool
	// exactSessions is, in a closed loop, how many of the first sessions
	// define questions_per_session (so it repeats exactly for a seed).
	exactSessions int
	// setups is how many times a run sets the server up; setup_s is the
	// median. Cheap set-ups take more, to steady the median.
	setups int
	// defaultRegistry registers service.DefaultRegistry on the server.
	defaultRegistry bool
	// pool builds the instances the server registers. It depends on no
	// seed: the seed draws the traffic, never the data.
	pool func() ([]*instance, error)
	// mix draws the i-th session over the pool for a workload seed.
	mix func(pool []*instance, i int, seed int64) sessionSpec
	// combos lists every session shape the mix can draw (warm-up set).
	combos func(pool []*instance) []sessionSpec
}

// Open-loop rates are about half the open-loop capacity measured over
// 20 s windows on a 2-CPU x86-64 VM with two clients — the highest rate at
// which converged sessions per second still tracked the offered rate:
// warm-crowd ≈ 240 sessions/s; ingest-mix ≈ 240 sessions/s at its
// 0.5 deltas/s (230/s converged at 240 offered, 232/s at 300 offered with
// the question p50 up from ~1 ms to 15 ms). ingest-mix runs 0.5 deltas/s:
// at 1.5–3/s its policy hit ratio sits near 0.5, and its question p50
// jumps between the hit and the miss mode from run to run. To calibrate
// again, sweep the rate field below and rebuild.
var workloads = map[string]*workload{
	// A popular deployment's steady state: cache hits, codec, middleware,
	// manager and store appends do the work; the lookahead kernel idles.
	"warm-crowd": {
		name: "warm-crowd", open: true, rate: 120, think: 2 * time.Millisecond,
		policyCacheBytes: 64 << 20, warm: true, defaultRegistry: true, setups: 3,
		pool: defaultPool(nil), mix: crowdMix(true), combos: crowdCombos(true),
	},
	// The first user of a new dataset: no cache, so the lookahead kernel
	// and the semijoin solver do most of the work.
	"cold-lookahead": {
		name: "cold-lookahead", open: false, exactSessions: coldCycle * 6 * coldInstancesPerConfig, setups: 9,
		pool: coldPool, mix: coldMix,
	},
	// warm-crowd's read traffic over the Figure 7 instances plus a stream
	// of deltas: cache invalidation, session migration, delta-log appends.
	"ingest-mix": {
		name: "ingest-mix", open: true, rate: 120, think: 2 * time.Millisecond, deltaRate: 0.5,
		policyCacheBytes: 64 << 20, warm: true, defaultRegistry: true, setups: 5,
		pool: defaultPool(isSynth), mix: crowdMix(false), combos: crowdCombos(false),
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sessionSpec is one simulated crowd requester: which instance, strategy,
// goal and batch size.
type sessionSpec struct {
	inst     *instance
	strategy joininference.StrategyID
	semijoin bool
	k        int
	goal     int
}

// key identifies the session's question sequence: the in-process reference
// run and the warm-up are shared by every session with the same key.
func (s sessionSpec) key() string {
	strat := s.strategy
	if s.semijoin {
		// Semijoin sessions pick by scan order whatever the strategy.
		strat = "⋉"
	}
	return fmt.Sprintf("%s|%s|%d|%d", s.inst.name, strat, s.goal, s.k)
}

// instance is the load generator's own copy of one served instance: the same data
// the server builds from the same constructors, a fixed pool of goal
// predicates, and (for ingest-mix) every version the deltas produced.
type instance struct {
	name   string
	src    string // server registration: "default" or a -synth spec
	omega  int
	l1Only bool // lookahead sessions on it use L1S only
	goals  []joininference.Pred
	cfg    synth.Config

	// mu guards versions; ingestMu serializes this instance's deltas.
	mu       sync.RWMutex
	versions map[int64]*version
	ingestMu sync.Mutex
	rng      *rand.Rand // delta generator, under ingestMu
	// committed is the newest version the server acknowledged; prepared
	// the newest the load generator has sent. A session running while they differ
	// may straddle a version change.
	committed, prepared atomic.Int64
}

// version is one version of an instance with its T-classes and the
// sessions the labeler rehydrates question refs on.
type version struct {
	v    int64
	inst *joininference.Instance
	cs   *joininference.ClassSet

	mu          sync.Mutex
	join, semij *joininference.Session
}

func newInstance(name, src string, inst *joininference.Instance, cs *joininference.ClassSet) *instance {
	in := &instance{name: name, src: src, versions: map[int64]*version{}}
	v := inst.Version()
	in.versions[v] = &version{v: v, inst: inst, cs: cs}
	in.committed.Store(v)
	in.prepared.Store(v)
	in.omega = joininference.NewSession(inst, joininference.WithPrecomputedClasses(cs)).Universe().Size()
	return in
}

func (in *instance) at(v int64) *version {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.versions[v]
}

// tip returns the newest prepared version.
func (in *instance) tip() *version { return in.at(in.prepared.Load()) }

// question rehydrates a served question on the load generator's copy, so the
// honest oracle labels exactly the rows the server named.
func (ver *version) question(semijoin bool, ref joininference.QuestionRef) (joininference.Question, error) {
	ver.mu.Lock()
	defer ver.mu.Unlock()
	if semijoin {
		if ver.semij == nil {
			ver.semij = joininference.NewSemijoinSession(ver.inst)
		}
		return ver.semij.QuestionByRef(ref)
	}
	if ver.join == nil {
		ver.join = joininference.NewSession(ver.inst, joininference.WithPrecomputedClasses(ver.cs))
	}
	return ver.join.QuestionByRef(ref)
}

func isSynth(name string) bool { return len(name) > 6 && name[:6] == "synth-" }

// defaultPool mirrors service.DefaultRegistry (optionally filtered): the
// five TPC-H goal joins with the paper's goals and the six Figure 7
// configurations with sampled goals.
func defaultPool(keep func(string) bool) func() ([]*instance, error) {
	return func() ([]*instance, error) {
		reg := service.DefaultRegistry()
		data, err := tpch.Generate(1, 1)
		if err != nil {
			return nil, err
		}
		paper := synth.PaperConfigs()
		var out []*instance
		for _, name := range reg.Names() {
			if keep != nil && !keep(name) {
				continue
			}
			e, err := reg.Get(name)
			if err != nil {
				return nil, err
			}
			in := newInstance(name, "default", e.Inst, e.Classes)
			u := joininference.NewSession(e.Inst, joininference.WithPrecomputedClasses(e.Classes)).Universe()
			var j, c int
			switch {
			case sscan(name, "tpch-join%d", &j):
				inst, goal, err := data.Instance(tpch.Join(j))
				if err != nil {
					return nil, err
				}
				text := goal.Format(joininference.NewSession(inst).Universe())
				g, err := joininference.ParsePredicate(u, text)
				if err != nil {
					return nil, err
				}
				in.goals = []joininference.Pred{g}
			case sscan(name, "synth-%d", &c):
				in.cfg = paper[c-1]
				if in.goals, err = sampleGoals(u, in.cfg, int64(c)); err != nil {
					return nil, err
				}
			}
			out = append(out, in)
		}
		return out, nil
	}
}

func sscan(s, format string, v *int) bool {
	n, err := fmt.Sscanf(s, format, v)
	return err == nil && n == 1
}

// sampleGoals draws the fixed goal pool of a synthetic configuration: two
// one-pair and two two-pair predicates Ai = Bj, from a seed that depends
// only on the configuration, never on the workload seed.
func sampleGoals(u *joininference.Universe, cfg synth.Config, poolSeed int64) ([]joininference.Pred, error) {
	rng := rand.New(rand.NewPCG(uint64(poolSeed), uint64(cfg.AttrsR*100+cfg.AttrsP)))
	pair := func() string {
		return fmt.Sprintf("A%d = B%d", rng.IntN(cfg.AttrsR)+1, rng.IntN(cfg.AttrsP)+1)
	}
	var goals []joininference.Pred
	for len(goals) < 4 {
		text := pair()
		if len(goals) >= 2 {
			text += " ∧ " + pair()
		}
		g, err := joininference.ParsePredicate(u, text)
		if err != nil {
			return nil, err
		}
		dup := false
		for _, h := range goals {
			dup = dup || h.Equal(g)
		}
		if !dup && (len(goals) < 2 || g.Size() == 2) {
			goals = append(goals, g)
		}
	}
	return goals, nil
}

// coldConfigs are the cold-lookahead instance shapes: Figure 7 sizes with
// Ω ≤ 64 (the word-level lookahead), synth (9,8,6,3) with Ω = 72 (the
// arena path) and a (6,6,20,10) instance of ~365 classes, on which only
// L1S runs (L2S takes seconds per session there).
var coldConfigs = []struct {
	cfg    synth.Config
	l1Only bool
}{
	{synth.Config{AttrsR: 3, AttrsP: 3, Rows: 100, Values: 100}, false},
	{synth.Config{AttrsR: 3, AttrsP: 4, Rows: 50, Values: 100}, false},
	{synth.Config{AttrsR: 2, AttrsP: 5, Rows: 50, Values: 100}, false},
	{synth.Config{AttrsR: 2, AttrsP: 4, Rows: 50, Values: 50}, false},
	{synth.Config{AttrsR: 9, AttrsP: 8, Rows: 6, Values: 3}, false},
	{synth.Config{AttrsR: 6, AttrsP: 6, Rows: 20, Values: 10}, true},
}

// coldInstancesPerConfig instances of each cold configuration are
// preloaded, generated from fixed seeds no other workload uses (so nothing
// about them is cached anywhere); several per shape keep one unusual
// instance from setting the run's figures. The workload seed draws the
// sessions, not the data, so runs differ only in the traffic.
const coldInstancesPerConfig = 5

func coldPool() ([]*instance, error) {
	var out []*instance
	for ci, c := range coldConfigs {
		for j := 0; j < coldInstancesPerConfig; j++ {
			instSeed := int64(1000 + ci*coldInstancesPerConfig + j)
			inst, err := synth.Generate(c.cfg, instSeed)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("cold-%d-%d", ci, j)
			src := fmt.Sprintf("%s=%d,%d,%d,%d@%d", name, c.cfg.AttrsR, c.cfg.AttrsP, c.cfg.Rows, c.cfg.Values, instSeed)
			in := newInstance(name, src, inst, joininference.PrecomputeClasses(inst))
			in.cfg, in.l1Only = c.cfg, c.l1Only
			u := joininference.NewSession(inst).Universe()
			if in.goals, err = sampleGoals(u, c.cfg, int64(ci)); err != nil {
				return nil, err
			}
			out = append(out, in)
		}
	}
	return out, nil
}

// coldKinds are the cold-lookahead session kinds: L1S join, L1S-labelled
// semijoin, L2S join, L2S-labelled semijoin (L1S only on l1Only
// instances; semijoin picks ignore the strategy).
const coldKinds = 4

// coldCycle is how many sessions on one instance cover every (kind, goal)
// pair once.
const coldCycle = coldKinds * 4

// coldMix cycles through the pool, and on each instance through every
// (kind, goal) pair once per cycle, in an order the seed shuffles. The
// seed changes the traffic's order, not its mix.
func coldMix(pool []*instance, i int, seed int64) sessionSpec {
	idx := i % len(pool)
	in := pool[idx]
	round := i / len(pool)
	perm := rand.New(rand.NewPCG(uint64(seed), uint64(idx)<<32|uint64(round/coldCycle))).Perm(coldCycle)
	combo := perm[round%coldCycle]
	s := sessionSpec{inst: in, k: 1, goal: (combo / coldKinds) % len(in.goals), strategy: joininference.StrategyL1S}
	kind := combo % coldKinds
	s.semijoin = kind%2 == 1
	if kind >= 2 && !in.l1Only {
		s.strategy = joininference.StrategyL2S
	}
	return s
}

// lookaheadExcluded reports session shapes left out of the crowd mixes:
// a cold L2S session on tpch-join4 (556 classes) takes ~20 s, too long to
// warm or to re-run as a reference within one benchmark run.
func lookaheadExcluded(in *instance, st joininference.StrategyID) bool {
	return in.name == "tpch-join4" && st == joininference.StrategyL2S
}

// crowdMix draws warm-crowd/ingest-mix sessions. Instances take turns;
// on each instance every (strategy, k ∈ {1,2,3}, goal) combination comes
// once per cycle, in an order the seed shuffles, so the seed changes the
// traffic's order but hardly its mix. Every fifth session is a semijoin
// session when withSemijoin.
func crowdMix(withSemijoin bool) func([]*instance, int, int64) sessionSpec {
	return func(pool []*instance, i int, seed int64) sessionSpec {
		strategies := joininference.KnownStrategies()
		idx := i % len(pool)
		in := pool[idx]
		round := i / len(pool)
		cycle := len(strategies) * 3 * len(in.goals)
		combo := rand.New(rand.NewPCG(uint64(seed), uint64(idx)<<32|uint64(round/cycle))).Perm(cycle)[round%cycle]
		st := strategies[combo%len(strategies)]
		if lookaheadExcluded(in, st) {
			st = joininference.StrategyL1S
		}
		combo /= len(strategies)
		return sessionSpec{inst: in, strategy: st, k: 1 + combo%3, goal: combo / 3, semijoin: withSemijoin && i%5 == 4}
	}
}

// crowdCombos lists every distinct session shape crowdMix can draw: the
// warm-up set.
func crowdCombos(withSemijoin bool) func([]*instance) []sessionSpec {
	return func(pool []*instance) []sessionSpec {
		seen := map[string]bool{}
		var out []sessionSpec
		add := func(s sessionSpec) {
			if !seen[s.key()] {
				seen[s.key()] = true
				out = append(out, s)
			}
		}
		for _, in := range pool {
			for g := range in.goals {
				for k := 1; k <= 3; k++ {
					for _, st := range joininference.KnownStrategies() {
						if lookaheadExcluded(in, st) {
							continue
						}
						add(sessionSpec{inst: in, strategy: st, k: k, goal: g})
					}
					if withSemijoin {
						add(sessionSpec{inst: in, strategy: joininference.StrategyTD, semijoin: true, k: k, goal: g})
					}
				}
			}
		}
		return out
	}
}
