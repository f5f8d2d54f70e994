package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// schemaVersion names the one result schema every file the benchmark
// writes follows: the environment, the method, and per-metric medians with
// quartiles and sample counts.
const schemaVersion = "perfbench/v1"

// result is one run of one workload.
type result struct {
	Schema    string    `json:"schema"`
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   int       `json:"seconds"`
	Trace     bool      `json:"trace"`
	StartedAt time.Time `json:"started_at"`
	Env       env       `json:"env"`
	Method    method    `json:"method"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// Retries counts answer rounds the protocol repeats because a delta
	// landed under them; they are timed like any request but not failures.
	Retries  int               `json:"retries"`
	Failures []string          `json:"failures,omitempty"`
	Errors   []string          `json:"errors,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
}

type env struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
}

type method struct {
	Loop             string  `json:"loop"` // open or closed
	Rate             float64 `json:"rate_sessions_per_s,omitempty"`
	DeltaRate        float64 `json:"rate_deltas_per_s,omitempty"`
	ThinkMeanMs      float64 `json:"think_mean_ms,omitempty"`
	Clients          int     `json:"clients"`
	Setups           int     `json:"setups"`
	PolicyCacheBytes int64   `json:"policy_cache_bytes"`
	Flush            string  `json:"flush"`
	Transport        string  `json:"transport"`
}

// metric is one figure: value is what the run reports for it (a median, a
// percentile, a mean or a count, as its name says); median/q1/q3/n
// summarize the samples it came from.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// flushPolicy is the store configuration both sides of any comparison
// share: the log store's default, fsync on Sync/Close only.
const flushPolicy = "log store default: append per write, fsync only on Sync/Close (SyncEvery=false)"

func currentEnv() env {
	return env{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Commit:     commit(),
	}
}

// commit identifies the code under test: $PERFBENCH_COMMIT (ab.sh sets
// it), else "unknown" — the benchmark reads nothing outside its checkout.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// quantile is the linear-interpolation quantile of sorted xs (the
// "inclusive" method of Python's statistics.quantiles).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// summarize builds a metric whose value is the q-quantile of xs.
func summarize(xs []float64, q float64, unit string) metric {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return metric{
		Value: quantile(s, q), Unit: unit,
		Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s),
	}
}

// scalar is a metric measured once per run.
func scalar(v float64, unit string) metric {
	return metric{Value: v, Unit: unit, Median: v, Q1: v, Q3: v, N: 1}
}

func writeResult(path string, r *result) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
