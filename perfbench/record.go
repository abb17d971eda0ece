package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// expectedJSON holds the committed stream digests per workload and seed
// at each workload's standard length, as 16-digit hex.
//
//go:embed expected.json
var expectedJSON []byte

// expectedDigest returns the committed digest for the workload and seed.
func expectedDigest(workload string, seed uint64) (uint64, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		panic(fmt.Sprintf("perfbench: expected.json: %v", err)) // embedded at build time
	}
	h, ok := all[workload][strconv.FormatUint(seed, 10)]
	if !ok {
		return 0, false
	}
	d, err := strconv.ParseUint(h, 16, 64)
	if err != nil {
		panic(fmt.Sprintf("perfbench: expected.json: %s seed %d: %v", workload, seed, err))
	}
	return d, true
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fingerprint identifies the machine and build a run's wall-clock
// numbers belong to. Wall-clock figures compare only between records
// whose fingerprints are equal.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// record is the run record written beside every run.
type record struct {
	Workload     string            `json:"workload"`
	Seed         uint64            `json:"seed"`
	Traced       bool              `json:"traced"`
	LengthPs     int64             `json:"virtual_length_ps"`
	Shards       int               `json:"shards"`
	TrainCap     int               `json:"train_cap"`
	Digest       string            `json:"digest"`
	Reps         int               `json:"untraced_reps"`
	TracedReps   int               `json:"traced_reps"`
	FailedChecks []string          `json:"failed_checks"`
	Metrics      map[string]metric `json:"metrics"`
	SpanSelfNs   map[string]int64  `json:"span_self_ns,omitempty"`
	RepNsFrame   []float64         `json:"rep_host_ns_per_frame"`
	RepSetupS    []float64         `json:"setup_s_samples"`
	Fingerprint  fingerprint       `json:"fingerprint"`
	Result       result            `json:"-"`
}

func newRecord(w *workload, p params, traced bool, m measurement, commit string) *record {
	attempted, failed := checkCounts(m)
	e2e := endToEnd(m)
	all := map[string]metric{"failed_frac": {failedFrac(m), "ratio"}}
	for k, v := range e2e {
		all[k] = v
	}
	rec := &record{
		Workload: w.name, Seed: p.seed, Traced: traced,
		LengthPs: int64(p.length), Shards: max(p.shards, 1), TrainCap: max(p.trainCap, 1),
		Digest:       fmt.Sprintf("%016x", m.untraced[0].digest),
		Reps:         len(m.untraced),
		TracedReps:   len(m.traced),
		FailedChecks: []string{},
		RepNsFrame:   perRep(m.untraced, nsPerFrame),
		RepSetupS:    setupSamples(m.untraced),
		Metrics:      all,
		Fingerprint: fingerprint{
			CPUModel:   cpuModel(),
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Commit:     commit,
		},
	}
	for _, reps := range [][]repResult{m.untraced, m.traced} {
		for i, r := range reps {
			for _, c := range r.checks {
				if !c.ok {
					rec.FailedChecks = append(rec.FailedChecks, fmt.Sprintf("%s (rep %d)", c.name, i))
				}
			}
		}
	}
	rec.Result = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: e2e}
	if traced {
		layer := perLayer(m)
		for k, v := range layer {
			all[k] = v
		}
		rec.Result.Metrics = layer
		rec.SpanSelfNs = map[string]int64{}
		for id, s := range totals(m.tracers) {
			if s.count > 0 {
				rec.SpanSelfNs[spanNames[id]] = s.self
			}
		}
	}
	return rec
}

func (rec *record) write(path string) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printReport prints the human-readable report: every metric of the run
// by name and unit, and for a traced run the self time of every span.
func printReport(w io.Writer, rec *record, m measurement) {
	fmt.Fprintf(w, "perfbench %s seed=%d length=%.0fus shards=%d train_cap=%d reps=%d traced_reps=%d digest=%s\n",
		rec.Workload, rec.Seed, float64(rec.LengthPs)/1e6, rec.Shards, rec.TrainCap, rec.Reps, rec.TracedReps, rec.Digest)
	fmt.Fprintf(w, "machine: %s, nproc=%d, GOMAXPROCS=%d, %s, commit %s\n",
		rec.Fingerprint.CPUModel, rec.Fingerprint.NumCPU, rec.Fingerprint.GOMAXPROCS, rec.Fingerprint.GoVersion, rec.Fingerprint.Commit)
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", k, rec.Metrics[k].Value, rec.Metrics[k].Unit)
	}
	for _, f := range rec.FailedChecks {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", f)
	}
	if len(m.tracers) == 0 {
		return
	}
	all := totals(m.tracers)
	run := float64(all[spanRun].total)
	fmt.Fprintf(w, "  %-20s %10s %14s %14s %8s\n", "span", "count", "total_ns", "self_ns", "self%run")
	for id, s := range all {
		if s.count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-20s %10d %14d %14d %7.2f%%\n", spanNames[id], s.count, s.total, s.self, 100*ratio(float64(s.self), run))
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
