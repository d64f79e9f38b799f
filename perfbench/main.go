// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload for a fixed wall-clock window, checks every output
// the program produced, and prints its metrics. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 123, "failed": 0, "metrics": {...}}
//
// Usage (run.sh builds perfbench and colorserved from the checkout and
// supplies the last three flags):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//	          [--colorserved PATH] [--scratch DIR] [--commit ID]
//
// With --trace 0 the metrics are the end-to-end set: setup_s, peak_rss_mb,
// throughput_per_s, latency_p50_ms and latency_p99_ms. With --trace 1 they
// are the per-layer set, measured by timing calls into each layer's public
// functions from outside the program; a layer the workload leaves idle is
// measured by a short probe instead (see probe.go). README.md lists the
// workloads and which end-to-end metric each per-layer metric moves.
//
// Any failed output check makes "correct" false and the exit code 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run repeats its set-up; setup_s is the
// median.
const setupRepeats = 5

// env is one benchmark run: its options and the report it fills.
type env struct {
	seed        int64
	seconds     time.Duration
	trace       bool
	colorserved string // path of the colorserved binary
	scratch     string // directory for spill files; removed at exit
	nproc       int
	rep         *report
}

// workload is one named traffic mix. run measures it; with env.trace set it
// reports the per-layer metrics of the groups named in layers (and of its
// own layers without a probe), and the traced run probes the other groups.
type workload struct {
	name   string
	layers []string
	run    func(*env) error
}

// Per-layer groups with a probe (probe.go): a traced run probes the ones
// its workload leaves idle.
const (
	layerChecker = "checker" // sim, contract, model, ooc
	layerBig     = "bigsim"
)

var workloads = []workload{
	{name: "sweep-c5", layers: []string{layerChecker}, run: runSweepC5},
	{name: "check-c7-spill", layers: []string{layerChecker}, run: runCheckC7Spill},
	{name: "bigcurve", layers: []string{layerBig}, run: runBigCurve},
	{name: "serve-open-low", run: func(v *env) error { return runServeOpen(v, lowRate) }},
	{name: "serve-open-high", run: func(v *env) error { return runServeOpen(v, highRate) }},
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run executes one benchmark run and returns the exit code: 0 when every
// output check passed, 1 otherwise. An error means no result was printed.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: identifiers, scheduler seeds and job specs derive from it")
	seconds := fs.Int("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = report the per-layer metrics instead of the end-to-end ones")
	colorserved := fs.String("colorserved", "", "path of the colorserved binary (serve workloads and probes)")
	scratch := fs.String("scratch", ".bench_build/perfbench-scratch", "directory for spill files, removed at exit")
	commit := fs.String("commit", "unknown", "source revision stamped on the result")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return 2, fmt.Errorf("unknown workload %q (want %s)", *name, workloadNames())
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	dir, err := filepath.Abs(*scratch)
	if err != nil {
		return 2, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 2, fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)

	v := &env{
		seed:        *seed,
		seconds:     time.Duration(*seconds) * time.Second,
		trace:       *trace == 1,
		colorserved: *colorserved,
		scratch:     dir,
		nproc:       runtime.NumCPU(),
		rep:         newReport(),
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		w.name, v.seed, *seconds, *trace, v.nproc, runtime.GOMAXPROCS(0), runtime.Version(), *commit)
	if err := w.run(v); err != nil {
		return 1, err
	}
	if v.trace {
		if err := probeIdleLayers(v, w.layers); err != nil {
			return 1, err
		}
	}
	if err := v.rep.write(stdout); err != nil {
		return 1, err
	}
	if !v.rep.correct() {
		return 1, nil
	}
	return 0, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's operations, failed checks and metrics.
type report struct {
	attempted, failed int
	checkErrs         []string
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// op counts one attempted operation; a non-nil err marks it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail records a failed output check.
func (r *report) fail(err error) {
	r.failed++
	if len(r.checkErrs) < 20 {
		r.checkErrs = append(r.checkErrs, err.Error())
	}
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// set records a metric.
func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// endToEnd records the five end-to-end metrics. setups are the repeated
// set-up times (the median is reported), work the units completed in
// busy time, latencies the per-operation times in seconds.
func (r *report) endToEnd(setups []float64, peakRSSMB, work float64, busy time.Duration, latencies []float64) {
	r.set("setup_s", median(setups), "s")
	r.set("peak_rss_mb", peakRSSMB, "MB")
	r.set("throughput_per_s", work/busy.Seconds(), "1/s")
	lat := summarize(latencies)
	r.set("latency_p50_ms", lat.p50*1e3, "ms")
	r.set("latency_p99_ms", lat.p99*1e3, "ms")
}

// write prints the human-readable lines and then the JSON result line.
func (r *report) write(w io.Writer) error {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, e := range r.checkErrs {
		fmt.Fprintln(w, "# check failed:", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
