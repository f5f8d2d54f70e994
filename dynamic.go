// Dynamic instances: versioned data with incremental version-space
// maintenance. An Instance is no longer frozen at load time — InsertRows /
// DeleteRows append a Delta to its log and return the next version, and
// ApplyDelta carries the expensive derived state (the T-classes and, via
// Session.ApplyUpdate, each live session's engine) onto that version
// incrementally, re-examining only what the delta can actually flip
// instead of recomputing the product. The maintained state is
// bit-identical to a rebuild from scratch on the new version (the
// differential suites check this at every layer), so dynamic and static
// instances are indistinguishable to everything downstream.
package joininference

import (
	"fmt"

	"repro/internal/inference"
	"repro/internal/policy"
	"repro/internal/predicate"
	"repro/internal/product"
	"repro/internal/relation"
	"repro/internal/semijoin"
)

// Delta is one batch of row changes against an instance version: rows to
// append to R and P, and live row indexes to delete. Apply one with
// Instance.ApplyDelta (or the InsertRows/DeleteRows shorthands), then lift
// it through the derived layers with the package-level ApplyDelta.
type Delta = relation.Delta

// ErrStaleVersion reports a delta applied to an instance version that is
// no longer the tip of its history.
var ErrStaleVersion = relation.ErrStaleVersion

// InstanceUpdate is one applied delta lifted to the T-class layer: the two
// instance versions, the delta between them, and the maintained class set
// for the new version. Live sessions move onto it with Session.ApplyUpdate;
// a shared PolicyCache migrates its memoized trees with
// PolicyCache.ApplyUpdate.
type InstanceUpdate struct {
	// From and To are the instance before and after the delta
	// (To.Version() == From.Version()+1).
	From, To *Instance
	// Delta is the applied change.
	Delta Delta
	// Classes are the new version's T-classes, maintained incrementally —
	// sessions built fresh on To with WithPrecomputedClasses(Classes) and
	// sessions carried over with ApplyUpdate see identical class state.
	Classes *ClassSet

	res        *product.DeltaResult
	oldClasses []*product.Class
	// maxKept memoizes the ⊆-maximal-set comparison the TD tree migration
	// needs (O(classes²), computed at most once per update).
	maxKept *bool
}

// ApplyDelta applies d to inst (which must be the tip of its version
// history) and incrementally maintains the T-classes, touching only the
// classes the delta's product pairs land in or vanish from. cs must be the
// classes of inst (from PrecomputeClasses or a previous update's Classes).
// Errors wrap ErrStaleVersion when inst is no longer the tip.
func ApplyDelta(inst *Instance, cs *ClassSet, d Delta) (*InstanceUpdate, error) {
	if cs == nil {
		return nil, fmt.Errorf("joininference: ApplyDelta needs the current version's classes")
	}
	next, err := inst.ApplyDelta(d)
	if err != nil {
		return nil, fmt.Errorf("joininference: %w", err)
	}
	u := predicate.NewUniverse(inst)
	dr, err := product.ApplyDelta(inst, next, u, cs.classes, d)
	if err != nil {
		return nil, fmt.Errorf("joininference: %w", err)
	}
	return &InstanceUpdate{
		From:       inst,
		To:         next,
		Delta:      d.Clone(),
		Classes:    &ClassSet{classes: dr.Classes},
		res:        dr,
		oldClasses: cs.classes,
	}, nil
}

// Version returns the instance version this update produced.
func (upd *InstanceUpdate) Version() int64 { return upd.To.Version() }

// ClassesMinted returns how many T-classes the delta created.
func (upd *InstanceUpdate) ClassesMinted() int { return len(upd.res.Added) }

// ClassesRetired returns how many T-classes the delta emptied.
func (upd *InstanceUpdate) ClassesRetired() int { return upd.res.Retired }

// ApplyUpdate moves a live session onto the updated instance version,
// maintaining its engine incrementally: only classes the delta minted or
// whose settledness the delta could have flipped are re-examined. The
// session afterwards asks bit-identical questions to one snapshotted on
// the old version and resumed on the new one — examples whose rows the
// delta deleted are dropped from the sample (widening the version space;
// budget allowance returns with them), everything else is untouched, and
// the RND stream position is preserved.
//
// The session must be on upd.From (ErrStaleVersion otherwise); updates
// must be applied in version order. For semijoin sessions, deleting P rows
// can orphan a positive answer (its last witness disappears) — that
// surfaces as ErrInconsistent and the session is left unchanged on the old
// version, for the caller to retire.
//
// Sessions with WithCustomStrategy see the maintained engine through their
// StrategyView on the next question; a custom strategy that memoized view
// state across calls is the caller's to refresh.
func (s *Session) ApplyUpdate(upd *InstanceUpdate) error {
	if upd == nil {
		return fmt.Errorf("joininference: nil instance update")
	}
	if s.inst != upd.From {
		return fmt.Errorf("joininference: session is on version %d, update starts at %d: %w",
			s.inst.Version(), upd.From.Version(), ErrStaleVersion)
	}
	if s.sj != nil {
		return s.semijoinApplyUpdate(upd)
	}
	if _, err := s.engine.ApplyDelta(upd.To, upd.res); err != nil {
		if err == inference.ErrInconsistent {
			return ErrInconsistent
		}
		return fmt.Errorf("joininference: %w", err)
	}
	s.inst = upd.To
	s.cfg.classes = upd.Classes
	s.asked = len(s.engine.Sample().Examples())
	// The strategy is instance-bound (TD memoizes the ⊆-maximal set per
	// engine, and the engine was mutated in place); drop it so
	// the next question re-derives against the new classes. RND re-seeds
	// and fast-forwards to rngMark, exactly as a snapshot resume would.
	s.strat, s.stratErr = nil, nil
	s.classIdx = nil
	// Beliefs are keyed by class index; surviving classes carry their
	// evidence across the remap, retired classes lose it (their tuples are
	// gone, so the votes describe nothing).
	if s.soft != nil {
		s.soft.Remap(upd.res.Remap)
	}
	return nil
}

// semijoinApplyUpdate rebuilds the semijoin state against the new version:
// answers for deleted R rows are dropped, the witness-caching solver is
// rebuilt (its caches are instance-bound), and the surviving sample is
// re-checked for consistency — deletes in P can orphan a positive row.
// The session is mutated only on success.
func (s *Session) semijoinApplyUpdate(upd *InstanceUpdate) error {
	st := &semijoinState{
		u:       s.sj.u,
		solver:  semijoin.NewSolver(upd.To),
		labeled: make([]bool, upd.To.R.Len()),
	}
	for _, e := range s.sj.entries {
		if !upd.To.RAlive(e.RIndex) {
			continue
		}
		if e.Positive {
			st.sample.Pos = append(st.sample.Pos, e.RIndex)
		} else {
			st.sample.Neg = append(st.sample.Neg, e.RIndex)
		}
		st.labeled[e.RIndex] = true
		st.entries = append(st.entries, e)
	}
	theta, ok, err := st.solver.Consistent(st.sample)
	if err != nil {
		return fmt.Errorf("joininference: %w", err)
	}
	if !ok {
		return ErrInconsistent
	}
	st.current = theta
	st.valid = true
	s.sj = st
	s.inst = upd.To
	s.asked = len(st.entries)
	// Row indexes are stable across versions; only dead rows lose their
	// accumulated evidence.
	if s.soft != nil {
		s.soft.Drop(func(ri int) bool { return ri < upd.To.R.Len() && upd.To.RAlive(ri) })
	}
	return nil
}

// InstanceVersion returns the version of the instance the session currently
// runs over; ApplyUpdate advances it.
func (s *Session) InstanceVersion() int64 { return s.inst.Version() }

// PolicyInvalidation summarizes what one instance update did to a policy
// cache: how many of the old version's resident trees were migrated onto
// the new version's keys versus dropped wholesale, and the node counts
// carried over versus retired.
type PolicyInvalidation struct {
	TreesMigrated, TreesDropped int
	NodesMigrated, NodesRetired int
}

// ApplyUpdate migrates the cache's resident decision trees for instanceID
// across the update. Per strategy, exactly the subtrees the delta can have
// invalidated are retired and the rest are re-keyed onto the new instance
// version (trees are version-keyed, so a retired node is recomputed on
// demand and a stale one can never serve):
//
//   - BU and TD trees survive whenever the delta preserves the surviving
//     classes' canonical order (their picks scan classes in index order);
//     retired classes drop the nodes referencing them, minted classes
//     clear "scan exhausted" markers, and TD additionally requires the
//     ⊆-maximal class set to be unchanged (its pre-positive walk follows
//     it).
//   - RND trees survive only deltas that change no class indexes at all —
//     the draw depends on the informative-class count, which a minted or
//     retired class shifts.
//   - L1S/L2S trees additionally require no class count to have changed:
//     their picks weigh counts through the entropy lookahead.
//   - Semijoin ("⋉") trees are always dropped — their picks rest on
//     NP-complete witness scans over the very rows the delta changed.
func (pc *PolicyCache) ApplyUpdate(instanceID string, upd *InstanceUpdate) PolicyInvalidation {
	var inv PolicyInvalidation
	for _, k := range pc.c.Trees(instanceID, upd.From.Version()) {
		mig, ok := planMigration(k.Strategy, upd)
		if !ok {
			inv.NodesRetired += pc.c.Invalidate(k)
			inv.TreesDropped++
			continue
		}
		mig.Old = k
		mig.New = k
		mig.New.Version = upd.To.Version()
		m, r := pc.c.InvalidateSubtrees(mig)
		inv.TreesMigrated++
		inv.NodesMigrated += m
		inv.NodesRetired += r
	}
	return inv
}

// planMigration decides whether (and how) one strategy's decision tree
// survives the update; ok=false means no sound migration exists and the
// tree must be dropped.
func planMigration(strategyID string, upd *InstanceUpdate) (mig policy.Migration, ok bool) {
	res := upd.res
	minted := len(res.Added)
	identity := upd.identityRemap()
	switch strategyID {
	case string(StrategyBU), string(StrategyTD):
		// Both scan classes in index order; decisions survive exactly when
		// the surviving classes' relative order is intact and minted
		// classes sit past the old tail (so a resumed batch scan reaches
		// them). TD's pre-positive walk additionally follows the ⊆-maximal
		// set, which retirement can widen and minting can shrink.
		if !upd.orderPreserved() {
			return policy.Migration{}, false
		}
		if strategyID == string(StrategyTD) && (minted > 0 || res.Retired > 0) && !upd.maximalPreserved() {
			return policy.Migration{}, false
		}
		mig.DropDone = minted > 0
		if !identity {
			mig.Remap = res.Remap
		}
		return mig, true
	case string(StrategyRND):
		return policy.Migration{}, identity && minted == 0
	case string(StrategyL1S), string(StrategyL2S):
		return policy.Migration{}, identity && minted == 0 && !res.CountChanged
	default:
		// Semijoin trees ("⋉") and unknown strategies: drop.
		return policy.Migration{}, false
	}
}

// identityRemap reports that every old class kept its index (which implies
// minted classes, if any, took fresh tail indexes).
func (upd *InstanceUpdate) identityRemap() bool {
	for i, ni := range upd.res.Remap {
		if ni != i {
			return false
		}
	}
	return true
}

// orderPreserved reports that surviving classes kept their relative
// canonical order and minted classes all sit after them — the condition
// under which index-order scans resume correctly through a remap.
func (upd *InstanceUpdate) orderPreserved() bool {
	last := -1
	for _, ni := range upd.res.Remap {
		if ni < 0 {
			continue
		}
		if ni <= last {
			return false
		}
		last = ni
	}
	survivors := len(upd.res.Remap) - upd.res.Retired
	for _, a := range upd.res.Added {
		if a < survivors {
			return false
		}
	}
	return true
}

// maximalPreserved reports that the update maps the old ⊆-maximal class
// set exactly onto the new one: every old maximal class survives and stays
// maximal, and nothing else became maximal. Memoized — the check is
// O(classes²) subset tests.
func (upd *InstanceUpdate) maximalPreserved() bool {
	if upd.maxKept == nil {
		v := computeMaximalPreserved(upd)
		upd.maxKept = &v
	}
	return *upd.maxKept
}

func computeMaximalPreserved(upd *InstanceUpdate) bool {
	oldMax := maximalIdx(upd.oldClasses)
	newMax := maximalIdx(upd.res.Classes)
	if len(oldMax) != len(newMax) {
		return false
	}
	img := make(map[int]bool, len(oldMax))
	for _, oi := range oldMax {
		ni := upd.res.Remap[oi]
		if ni < 0 {
			return false
		}
		img[ni] = true
	}
	for _, ni := range newMax {
		if !img[ni] {
			return false
		}
	}
	return true
}

// maximalIdx returns the indexes of the ⊆-maximal classes, in class order
// (mirroring the TD strategy's walk order).
func maximalIdx(cs []*product.Class) []int {
	var out []int
	for i, c := range cs {
		maximal := true
		for j, d := range cs {
			if i != j && c.Theta.Set.ProperSubsetOf(d.Theta.Set) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, i)
		}
	}
	return out
}
