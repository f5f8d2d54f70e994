package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparator reads: each
// metric's better direction and, for end-to-end metrics, its bound.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// verdict values.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// minPairs is the fewest interleaved parent/change pairs a verdict needs.
const minPairs = 10

// pairing is one metric × workload across the paired runs.
type pairing struct {
	parent, change []float64 // index i is pair i
}

// judge applies the rule for claiming a change: improved when the change
// wins at least 9/10 of the pairs (ties count for neither) and the medians
// differ by more than the parent's interquartile range; worse by the same
// rule the other way, or when the change's median is worse than the
// parent's by more than the bound; unchanged when it is within the bound
// and the parent's own spread is too (or every change run beats every
// parent run); otherwise unresolved. higherBetter flips the direction;
// bound < 0 means the metric has none, and then only a difference inside
// the parent's spread reads as unchanged.
func judge(p pairing, higherBetter bool, bound float64) (string, string) {
	n := len(p.parent)
	if n < minPairs {
		return unresolved, fmt.Sprintf("%d pairs < %d", n, minPairs)
	}
	better := func(c, q float64) bool {
		if higherBetter {
			return c > q
		}
		return c < q
	}
	wins, losses := 0, 0
	for i := range p.parent {
		switch {
		case better(p.change[i], p.parent[i]):
			wins++
		case better(p.parent[i], p.change[i]):
			losses++
		}
	}
	ps := append([]float64(nil), p.parent...)
	cs := append([]float64(nil), p.change...)
	sort.Float64s(ps)
	sort.Float64s(cs)
	pMed, cMed := quantile(ps, 0.5), quantile(cs, 0.5)
	iqr := quantile(ps, 0.75) - quantile(ps, 0.25)
	diff := math.Abs(cMed - pMed)
	why := fmt.Sprintf("wins %d/%d, losses %d/%d, |Δmedian| %.4g vs parent IQR %.4g", wins, n, losses, n, diff, iqr)
	switch {
	case 10*wins >= 9*n && diff > iqr:
		return improved, why
	case 10*losses >= 9*n && diff > iqr:
		return worse, why
	}
	if bound < 0 {
		if diff <= iqr {
			return unchanged, why
		}
		return unresolved, why
	}
	scale := math.Abs(pMed)
	if better(pMed, cMed) && diff > bound*scale {
		return worse, why + fmt.Sprintf(", median worse by %.1f%% > bound %.0f%%", 100*diff/scale, 100*bound)
	}
	allBetter := better(cs[len(cs)-1], ps[0])
	if higherBetter {
		allBetter = better(cs[0], ps[len(ps)-1])
	}
	if iqr <= bound*scale || allBetter {
		return unchanged, why
	}
	return unresolved, why + fmt.Sprintf(", parent spread %.1f%% > bound %.0f%%", 100*iqr/scale, 100*bound)
}

// loadResults reads every result file of a directory, keyed by
// workload/trace and then by seed.
func loadResults(dir string) (map[string]map[int64]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[int64]*result{}
	for _, path := range paths {
		r, err := readResult(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Schema != schemaVersion {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schemaVersion)
		}
		key := fmt.Sprintf("%s/trace=%v", r.Workload, r.Trace)
		if out[key] == nil {
			out[key] = map[int64]*result{}
		}
		if _, dup := out[key][r.Seed]; dup {
			return nil, fmt.Errorf("%s: second %s run with seed %d", dir, key, r.Seed)
		}
		out[key][r.Seed] = r
	}
	return out, nil
}

// interleaved reports whether the paired runs alternated: within every
// pair the two runs are adjacent in time, and which side ran first
// alternates from pair to pair.
func interleaved(parent, change []*result) bool {
	type run struct {
		pair   int
		parent bool
		at     int64
	}
	var runs []run
	for i := range parent {
		runs = append(runs, run{i, true, parent[i].StartedAt.UnixNano()}, run{i, false, change[i].StartedAt.UnixNano()})
	}
	sort.Slice(runs, func(a, b int) bool { return runs[a].at < runs[b].at })
	prevFirst := -1
	for i := 0; i+1 < len(runs); i += 2 {
		if runs[i].pair != runs[i+1].pair {
			return false
		}
		first := 0
		if runs[i].parent {
			first = 1
		}
		if first == prevFirst {
			return false
		}
		prevFirst = first
	}
	return true
}

// gate checks, before any metric of a workload is judged, that the
// figures are comparable and that the change did not buy them with
// failures: every change run passed its output checks and failed no more
// requests than its paired parent run, every parent run passed its checks,
// and both sides ran the same method and length. Otherwise it returns the
// verdict every metric gets, and why.
func gate(ps, cs []*result) (string, string) {
	for i := range ps {
		p, c := ps[i], cs[i]
		switch {
		case !c.Correct:
			return worse, fmt.Sprintf("change run with seed %d failed its output checks", c.Seed)
		case c.Failed > p.Failed:
			return worse, fmt.Sprintf("change run with seed %d failed %d requests, parent %d", c.Seed, c.Failed, p.Failed)
		case !p.Correct:
			return unresolved, fmt.Sprintf("parent run with seed %d failed its output checks", p.Seed)
		case p.Method != c.Method || p.Seconds != c.Seconds:
			return unresolved, fmt.Sprintf("runs with seed %d differ in method or length: parent %+v %ds, change %+v %ds",
				p.Seed, p.Method, p.Seconds, c.Method, c.Seconds)
		}
	}
	return "", ""
}

// compareMain prints a verdict for every metric × workload the two result
// directories share, with directions and bounds from BENCHMARK.json.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	parentDir := fs.String("parent", "", "result directory of the parent commit")
	changeDir := fs.String("change", "", "result directory of the change")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition (directions and bounds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parentDir == "" || *changeDir == "" {
		return errors.New("compare: -parent and -change are required")
	}
	var spec benchSpec
	if b, err := os.ReadFile(*benchPath); err != nil {
		return err
	} else if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	dirs := map[string]specMetric{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		dirs[m.Name] = m
	}
	parent, err := loadResults(*parentDir)
	if err != nil {
		return err
	}
	change, err := loadResults(*changeDir)
	if err != nil {
		return err
	}
	var groups []string
	for g := range parent {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	if len(groups) == 0 {
		return errors.New("compare: no parent runs")
	}
	for _, g := range groups {
		// A parent run without its change run counts as a failed change
		// run: the change crashed, or was not run.
		var seeds, missing []int64
		for s := range parent[g] {
			if change[g][s] != nil {
				seeds = append(seeds, s)
			} else {
				missing = append(missing, s)
			}
		}
		if len(missing) > 0 {
			sort.Slice(missing, func(a, b int) bool { return missing[a] < missing[b] })
			fmt.Fprintf(w, "%s: WORSE: no change run for parent seeds %v\n", g, missing)
			continue
		}
		sort.Slice(seeds, func(a, b int) bool { return seeds[a] < seeds[b] })
		var ps, cs []*result
		for _, s := range seeds {
			ps, cs = append(ps, parent[g][s]), append(cs, change[g][s])
		}
		alt := interleaved(ps, cs)
		fmt.Fprintf(w, "%s: %d pairs (seeds matched), interleaved=%v\n", g, len(seeds), alt)
		if v, why := gate(ps, cs); v != "" {
			fmt.Fprintf(w, "  every metric %s: %s\n", strings.ToUpper(v), why)
			continue
		}
		var names []string
		for name := range ps[0].Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			var p pairing
			for i := range ps {
				pm, ok1 := ps[i].Metrics[name]
				cm, ok2 := cs[i].Metrics[name]
				if ok1 && ok2 {
					p.parent, p.change = append(p.parent, pm.Value), append(p.change, cm.Value)
				}
			}
			// Metrics BENCHMARK.json does not list are lower-is-better
			// timings and counts without a bound.
			d := dirs[name]
			bound := -1.0
			if d.Bound != nil {
				bound = *d.Bound
			}
			v, why := judge(p, d.Better == "higher", bound)
			if !alt && v != unresolved {
				v, why = unresolved, "runs not interleaved; "+why
			}
			sp, sc := append([]float64(nil), p.parent...), append([]float64(nil), p.change...)
			sort.Float64s(sp)
			sort.Float64s(sc)
			fmt.Fprintf(w, "  %-44s parent %-28s change %-28s %-10s %s\n", name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", quantile(sp, 0.5), quantile(sp, 0.25), quantile(sp, 0.75)),
				fmt.Sprintf("%.4g [%.4g, %.4g]", quantile(sc, 0.5), quantile(sc, 0.25), quantile(sc, 0.75)),
				strings.ToUpper(v), why)
		}
	}
	return nil
}
