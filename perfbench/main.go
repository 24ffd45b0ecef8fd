// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the simulator only through its public package
// functions and reports one JSON result line:
//
//	perfbench --workload fig3_dense_100 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures the end-to-end metrics of one workload;
// with --trace 1 it runs the workload's fixed traced pass and reports
// the per-layer metrics. README.md documents the workloads, the metric
// catalog and which layer metric should move which end-to-end metric.
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
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a seconds-long smoke size that runs
	// the same code path; the benchmark's own tests use it.
	tiny bool
	// root is the repository checkout (golden files are read from it);
	// out receives span dumps and replayed grid outputs.
	root, out string
	// workers is the run-pool width: maxWorkers, capped at nproc.
	workers int
	// log receives the human-readable summary lines.
	log io.Writer
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is what a workload returns: every metric of the requested
// catalog plus the attempted/failed operation counts.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	// problems lists every failed output check, for the log.
	problems []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// maxWorkers is the most run-pool workers (and daemon worker slots) a
// workload uses: the two vCPUs the benchmark was sized on.
const maxWorkers = 2

// workloadFunc runs one workload in untraced (end-to-end) or traced
// (per-layer) mode.
type workloadFunc func(opt options) (*report, error)

var workloads = map[string]workloadFunc{
	"fig3_dense_100":  func(opt options) (*report, error) { return runFig3(opt, denseSpec(opt)) },
	"fig3_sparse_50k": func(opt options) (*report, error) { return runFig3(opt, sparseSpec(opt)) },
	"simd_grid":       runSimdGrid,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses args, runs the workload and prints the result line. An
// error means no result was printed.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var traceFlag int
	fs.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed (the same seed gives the same inputs)")
	fs.Float64Var(&opt.seconds, "seconds", 30, "length of the timed phase in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.BoolVar(&opt.tiny, "tiny", false, "smoke-test sizes (same code path)")
	fs.StringVar(&opt.root, "root", ".", "repository checkout root")
	fs.StringVar(&opt.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for span dumps and replay outputs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	wl, ok := workloads[opt.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	opt.trace = traceFlag == 1
	if opt.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	opt.workers = min(maxWorkers, runtime.NumCPU())
	opt.log = stderr
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}

	rep, err := wl(opt)
	if err != nil {
		return err
	}
	res, err := finish(opt, rep)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// finish validates that the workload produced exactly the requested
// catalog and renders the result.
func finish(opt options, rep *report) (result, error) {
	catalog := endToEnd
	if opt.trace {
		catalog = perLayer
	}
	res := result{
		Correct:   rep.failed == 0 && len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(catalog)),
	}
	if rep.attempted < 1 {
		return res, errors.New("workload attempted no operations")
	}
	for _, m := range catalog {
		v, ok := rep.values[m.name]
		if !ok {
			return res, fmt.Errorf("workload %s did not measure %s", opt.workload, m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(opt.log, "%-34s %14.6g %s\n", m.name, v, m.unit)
	}
	if len(rep.values) != len(catalog) {
		return res, fmt.Errorf("workload %s measured %d metrics, the catalog has %d", opt.workload, len(rep.values), len(catalog))
	}
	fmt.Fprintf(opt.log, "%-34s %14.6g frac (%d of %d failed)\n", "failed_frac",
		float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Fprintln(opt.log, "check failed:", p)
	}
	return res, nil
}
