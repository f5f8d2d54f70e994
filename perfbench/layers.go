package main

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// strategyNames are the per-strategy split labels: the five strategies of
// Section 4 plus semijoin sessions, whose picks ignore the strategy.
var strategyNames = []string{"bu", "td", "l1s", "l2s", "rnd", "semijoin"}

// layerRows are the rows of the layer table, in request-path order. Each
// is a layer's self time in microseconds per request, measured at its own
// boundary: the client's round trip minus the benchmark's handler wrapper
// (net), the middleware's root "http" span minus the manager's session
// spans (service.http), the session spans minus the question_segment_seconds
// segments (service.manager), and the segments themselves. What no boundary
// covers — the wrapper itself and the middleware's work outside its root
// span, such as the access-log line — is the unaccounted remainder.
var layerRows = []string{
	"net.us_per_req",
	"service.http.us_per_req",
	"service.manager.us_per_req",
	"policy.us_per_req",
	"strategy.us_per_req",
	"store.us_per_req",
}

// layerInput is what a traced window leaves behind.
type layerInput struct {
	samples       []sample
	before, after serverStats
	sessions      []*crowdSession
	live          map[string]float64 // in-process µs per question by strategy
	untracedMean  float64            // client µs per request, untraced run
}

func sub(a, b int64) float64 { return float64(a - b) }

func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics computes every per-layer metric from a traced window.
func layerMetrics(in layerInput) map[string]metric {
	out := map[string]metric{}
	set := func(name string, v float64, unit string) { out[name] = scalar(v, unit) }
	b, a := in.before, in.after

	var clientNs float64
	var lags []float64
	for _, s := range in.samples {
		clientNs += float64(s.service())
		lags = append(lags, float64(s.lag())/1e6)
	}
	n := float64(len(in.samples))
	route := func(name string) (count, nanos, bytes float64) {
		return sub(a.Routes[name].Count, b.Routes[name].Count),
			sub(a.Routes[name].Nanos, b.Routes[name].Nanos),
			sub(a.Routes[name].Bytes, b.Routes[name].Bytes)
	}
	span := func(name string) float64 { return sub(a.Spans[name].Nanos, b.Spans[name].Nanos) }
	seg := func(name string) (count, nanos float64) {
		return sub(a.Segments[name].Count, b.Segments[name].Count), (a.Segments[name].Sum - b.Segments[name].Sum) * 1e9
	}
	var handlerNs, serverReqs float64
	for name := range a.Routes {
		c, ns, _ := route(name)
		handlerNs += ns
		serverReqs += c
	}
	sessNs := span("session.questions") + span("session.answers")
	var rootNs float64
	for name := range a.Spans {
		if strings.HasPrefix(name, "http ") {
			rootNs += span(name)
		}
	}
	stratN, stratNs := seg("strategy")
	cacheN, cacheNs := seg("cache")
	_, storeNs := seg("store")

	us := func(ns float64) float64 { return per(ns/1e3, n) }
	set("client.us_per_req", us(clientNs), "us")
	set("driver.lag_p99_ms", summarize(lags, 0.99, "ms").Value, "ms")
	set("net.us_per_req", us(clientNs-handlerNs), "us")
	set("service.http.us_per_req", us(rootNs-sessNs), "us")
	set("service.manager.us_per_req", us(sessNs-stratNs-cacheNs-storeNs), "us")
	set("policy.us_per_req", us(cacheNs), "us")
	set("strategy.us_per_req", us(stratNs), "us")
	set("store.us_per_req", us(storeNs), "us")
	var rows float64
	for _, r := range layerRows {
		rows += out[r].Value
	}
	client := out["client.us_per_req"].Value
	set("unaccounted_pct", per(100*(client-rows), client), "%")
	set("obs.trace_overhead_pct", per(100*(client-in.untracedMean), in.untracedMean), "%")

	// Per route: the wrapper's handler time minus the route's session span.
	// (The middleware names every root span after the outer mux pattern
	// "/", so root spans cannot be split by route.)
	for _, r := range []struct{ route, span string }{{"questions", "session.questions"}, {"answers", "session.answers"}, {"create", ""}} {
		c, ns, _ := route(r.route)
		if r.span != "" {
			ns -= span(r.span)
		}
		set("service.http."+r.route+".us_per_req", per(ns/1e3, c), "us")
	}
	served := sub(a.Manager.QuestionsServed, b.Manager.QuestionsServed)
	_, _, qBytes := route("questions")
	set("service.http.bytes_per_question", per(qBytes, served), "bytes")
	set("service.manager.migrations", sub(a.Manager.SessionsMigrated, b.Manager.SessionsMigrated), "count")

	if a.Manager.PolicyCache != nil && b.Manager.PolicyCache != nil {
		pa, pb := a.Manager.PolicyCache, b.Manager.PolicyCache
		hits := float64(pa.Hits+pa.Tier2Hits) - float64(pb.Hits+pb.Tier2Hits)
		lookups := float64(pa.Hits+pa.Misses) - float64(pb.Hits+pb.Misses)
		set("policy.hit_ratio", per(hits, lookups), "ratio")
		set("policy.evictions", float64(pa.Evictions-pb.Evictions), "count")
		set("policy.invalidated", float64(pa.Invalidated-pb.Invalidated), "count")
	} else {
		set("policy.hit_ratio", 0, "ratio")
		set("policy.evictions", 0, "count")
		set("policy.invalidated", 0, "count")
	}
	set("policy.us_per_hit", per(cacheNs/1e3, cacheN), "us")
	tier := a.KV["policy"].nanos() - b.KV["policy"].nanos()
	set("policy.tier2_us_per_req", us(float64(tier)), "us")
	set("strategy.us_per_pick", per(stratNs/1e3, stratN), "us")
	set("strategy.picks", stratN, "count")

	// Per-strategy split: the manager's session.questions span per question
	// served, grouped by the session's strategy (and Ω for the lookahead
	// kernels) — with a warm cache the hit path, without it live compute —
	// and the session.answers span per answer round.
	type acc struct{ ns, q float64 }
	byStrat := map[string]*acc{}
	byAnswer := map[string]*acc{}
	byKernel := map[string]*acc{}
	add := func(m map[string]*acc, k string, ns, q float64) {
		if m[k] == nil {
			m[k] = &acc{}
		}
		m[k].ns += ns
		m[k].q += q
	}
	for _, s := range in.sessions {
		sp, ok := a.Sessions[s.id]
		if !ok || s.questions == 0 {
			continue
		}
		st := strings.ToLower(string(s.spec.strategy))
		if s.spec.semijoin {
			st = "semijoin"
		}
		add(byStrat, st, float64(sp.Questions.Nanos), float64(s.questions))
		add(byAnswer, st, float64(sp.Answers.Nanos), float64(sp.Answers.Count))
		if !s.spec.semijoin && (st == "l1s" || st == "l2s") {
			omega := "omega_le64"
			if s.spec.inst.omega > 64 {
				omega = "omega_gt64"
			}
			add(byKernel, st+"."+omega, float64(sp.Questions.Nanos), float64(s.questions))
		}
	}
	for _, st := range strategyNames {
		v := 0.0
		if x := byStrat[st]; x != nil {
			v = per(x.ns/1e3, x.q)
		}
		set("session."+st+".us_per_question", v, "us")
		v = 0
		if x := byAnswer[st]; x != nil {
			v = per(x.ns/1e3, x.q)
		}
		set("session."+st+".us_per_answer", v, "us")
		set("strategy."+st+".live_us_per_question", in.live[st], "us")
	}
	for _, st := range []string{"l1s", "l2s"} {
		for _, omega := range []string{"omega_le64", "omega_gt64"} {
			v := 0.0
			if x := byKernel[st+"."+omega]; x != nil {
				v = per(x.ns/1e6, x.q)
			}
			set("strategy."+st+"."+omega+".ms_per_question", v, "ms")
		}
	}
	v := 0.0
	if x := byStrat["semijoin"]; x != nil {
		v = per(x.ns/1e6, x.q)
	}
	set("semijoin.ms_per_question", v, "ms")

	answers, _, _ := route("answers")
	sk := func(s serverStats) kvStat { return s.KV["session"] }
	puts := sub(sk(a).Puts, sk(b).Puts)
	set("store.puts_per_answer", per(puts, answers), "count")
	set("store.bytes_per_answer", per(sub(sk(a).PutBytes, sk(b).PutBytes), answers), "bytes")
	set("store.us_per_put", per(sub(sk(a).PutNanos, sk(b).PutNanos)/1e3, puts), "us")
	if a.Manager.Store != nil && b.Manager.Store != nil {
		set("store.compactions", float64(a.Manager.Store.Compactions-b.Manager.Store.Compactions), "count")
	} else {
		set("store.compactions", 0, "count")
	}
	ic, ins, _ := route("ingest")
	set("service.ingest.us_per_delta", per(ins/1e3, ic), "us")
	var load float64
	for _, ms := range a.LoadMs {
		load += ms
	}
	set("service.registry.load_ms", per(load, float64(len(a.LoadMs))), "ms")
	set("runtime.allocs_per_req", per(float64(a.Runtime.Mallocs-b.Runtime.Mallocs), serverReqs), "count")
	set("runtime.alloc_bytes_per_req", per(float64(a.Runtime.AllocBytes-b.Runtime.AllocBytes), serverReqs), "bytes")
	set("runtime.gc_pause_ms", float64(a.Runtime.PauseTotalNs-b.Runtime.PauseTotalNs)/1e6, "ms")
	return out
}

// printLayerTable writes the layer rows with their share of the client
// mean; printResult lists every per-layer metric after it.
func printLayerTable(w io.Writer, workload string, m map[string]metric) {
	client := m["client.us_per_req"].Value
	fmt.Fprintf(w, "layer table (%s, traced): client mean %.1f us/req\n", workload, client)
	for _, r := range layerRows {
		fmt.Fprintf(w, "  %-34s %10.1f us  %5.1f%%\n", r, m[r].Value, per(100*m[r].Value, client))
	}
	fmt.Fprintf(w, "  %-34s %10s     %5.1f%%\n", "unaccounted_pct", "", m["unaccounted_pct"].Value)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
