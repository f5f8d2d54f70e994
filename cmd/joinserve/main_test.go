package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	joininference "repro"
	"repro/internal/paperdata"
	"repro/internal/service"
)

func TestWarmFlagParsing(t *testing.T) {
	var w warmFlags
	if err := w.Set("tpch-join1=L2S:3"); err != nil {
		t.Fatal(err)
	}
	if len(w) != 1 || w[0].instance != "tpch-join1" || w[0].strategy != joininference.StrategyL2S || w[0].depth != 3 {
		t.Fatalf("parsed %+v", w)
	}
	if got := w.String(); got != "tpch-join1=L2S:3" {
		t.Errorf("String() = %q", got)
	}
	for _, bad := range []string{"", "x", "x=y", "x=:3", "=L2S:3", "x=L2S:", "x=L2S:0", "x=L2S:-1", "x=L2S:many"} {
		var w warmFlags
		if err := w.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

// TestDebugEndpoints boots the server mux (service API + pprof) and
// checks the debug endpoints it serves, and that /debug/vars is not one.
func TestDebugEndpoints(t *testing.T) {
	reg := service.NewRegistry()
	if err := reg.RegisterInstance("flights", paperdata.FlightHotel()); err != nil {
		t.Fatal(err)
	}
	cache := joininference.NewPolicyCache(1 << 20)
	mgr, err := service.NewManager(reg, service.Options{PolicyCache: cache})
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(newServeMux(mgr, true))
	defer srv.Close()

	if _, err := mgr.Create(service.Params{Instance: "flights"}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/metrics status = %d", resp.StatusCode)
	}
	var met service.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		t.Fatal(err)
	}
	if met.SessionsCreated != 1 || met.SessionsLive != 1 {
		t.Errorf("metrics = %+v, want 1 created/live", met)
	}
	if met.PolicyCache == nil || met.PolicyCache.MaxBytes != 1<<20 {
		t.Errorf("policy cache stats = %+v", met.PolicyCache)
	}

	// The counters' JSON view is /debug/metrics alone.
	vars, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vars.Body.Close()
	if vars.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/vars status = %d, want 404", vars.StatusCode)
	}

	// -pprof mounts the profiling index.
	pp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d with pprof enabled", pp.StatusCode)
	}
	plain := httptest.NewServer(newServeMux(mgr, false))
	defer plain.Close()
	off, err := http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer off.Body.Close()
	if off.StatusCode == http.StatusOK {
		t.Error("/debug/pprof/ served without -pprof")
	}

	// The service API is still mounted at the root.
	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d", hz.StatusCode)
	}
}
