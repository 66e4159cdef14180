// Command perfbench is grape's benchmark of record: three workloads that drive
// the system only through its public entry points, report end-to-end metrics
// measured with tracing off, and attribute them to layers (partition, engine,
// transport, server, store, graph, runtime) in a separate traced pass.
//
//	perfbench --workload analytics --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print the
// environment and every metric by name with its unit. See README.md for the
// workloads, the metric definitions, and which end-to-end metric each layer
// metric should move.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// e2eMetrics are reported with --trace 0 on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"read_p90_ms", "ms"},
	{"resident_mb", "MB"},
}

// layerMetrics are reported with --trace 1 on every workload.
var layerMetrics = func() []metricDef {
	var out []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit})
		}
	}
	perClass := func(unit, prefix, suffix string) {
		for _, c := range classNames {
			add(unit, prefix+c+suffix)
		}
	}
	perClass("ms", "", "_ms")
	add("ms", "read_p50_ms")
	add("KB", "comm_kb")
	add("ms", "write_p50_ms", "first_read_after_write_ms")
	add("ratio", "error_rate")
	perClass("ms", "partition.cut_ms.", "")
	perClass("ms", "partition.build_ms.", "")
	perClass("KB", "partition.replication_kb.", "")
	perClass("ms", "engine.run_ms.", "")
	perClass("ms", "engine.compute_ms.", "")
	perClass("ms", "engine.wait_ms.", "")
	perClass("ms", "engine.fold_ms.", "")
	perClass("ms", "engine.assemble_ms.", "")
	perClass("count", "engine.allocs.", "")
	perClass("count", "engine.supersteps.", "")
	perClass("KB", "engine.comm_kb.", "")
	add("ms", "engine.session_update_ms")
	add("ms", "transport.connect_ms")
	perClass("ms", "transport.ship_ms.", "")
	add("ratio", "server.hit_ratio")
	add("ms", "server.hit_ms", "server.miss_run_ms", "server.miss_overhead_ms")
	perClass("ms", "server.encode_ms.", "")
	add("count", "server.rejected")
	add("ms", "store.append_ms")
	add("bytes", "store.journal_bytes_per_write")
	add("ms", "store.snapshot_ms", "graph.freeze_ms")
	add("count", "runtime.gc_cycles")
	add("ms", "runtime.gc_pause_ms")
	add("%", "trace.overhead_pct")
	return out
}()

// outcome collects one run's counts, check failures and metric values.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	notes     []string // extra report lines, printed before the result
	m         map[string]float64
}

func newOutcome() *outcome { return &outcome{m: make(map[string]float64)} }

// problem records a failed correctness check.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// opFailed counts one failed operation and records why.
func (o *outcome) opFailed(format string, args ...any) {
	o.failed++
	o.problem(format, args...)
}

type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	tmp      string // scratch directory inside the checkout
}

var workloads = map[string]func(context.Context, config, *outcome) error{
	"analytics":      func(ctx context.Context, c config, o *outcome) error { return runAnalytics(ctx, c, o, false) },
	"analytics-wire": func(ctx context.Context, c config, o *outcome) error { return runAnalytics(ctx, c, o, true) },
	"serve-mixed":    runServeMixed,
}

func main() {
	workload := flag.String("workload", "analytics", "workload: analytics | analytics-wire | serve-mixed")
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same graphs, sources and update batches")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	traceFlag := flag.Int("trace", 0, "1 adds the traced per-layer pass and reports the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *traceFlag)
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(".bench_build", "perfbench-tmp-")
	if err != nil {
		fatal(err)
	}
	cfg := config{workload: *workload, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), traced: *traceFlag == 1, tmp: tmp}
	o := newOutcome()
	err = run(context.Background(), cfg, o)
	os.RemoveAll(tmp)
	if err != nil {
		fatal(err)
	}
	o.m["error_rate"] = float64(o.failed) / float64(max(o.attempted, 1))
	if err := report(os.Stdout, cfg, o); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the environment, every measured metric, the check failures,
// and finally the one-line JSON result.
func report(w io.Writer, cfg config, o *outcome) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.window.Seconds(), cfg.traced)
	for _, kv := range environment() {
		fmt.Fprintf(bw, "# env %s=%s\n", kv[0], kv[1])
	}
	printed := e2eMetrics
	if cfg.traced {
		printed = append(append([]metricDef(nil), e2eMetrics...), layerMetrics...)
	}
	for _, d := range printed {
		v, ok := o.m[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.problem("metric %s is %v", d.name, v)
			o.m[d.name] = 0
		}
		fmt.Fprintf(bw, "%-34s %14.4f %s\n", d.name, o.m[d.name], d.unit)
	}
	for _, n := range o.notes {
		fmt.Fprintf(bw, "# %s\n", n)
	}
	for _, p := range o.problems {
		fmt.Fprintf(bw, "# FAIL %s\n", p)
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{Correct: len(o.problems) == 0 && o.failed == 0, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: map[string]metricVal{}}
	reported := e2eMetrics
	if cfg.traced {
		reported = layerMetrics
	}
	for _, d := range reported {
		out.Metrics[d.name] = metricVal{o.m[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// environment records what a result depends on besides the code: the
// commit (when the binary was built inside a git checkout), a hash of the
// Go sources it was built from, the toolchain, the platform and the GC
// settings.
func environment() [][2]string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	return [][2]string{
		{"commit", commit},
		{"source_sha256", sourceHash()},
		{"go", runtime.Version()},
		{"goos_goarch", runtime.GOOS + "/" + runtime.GOARCH},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"numcpu", fmt.Sprint(runtime.NumCPU())},
		{"cpu", cpuModel()},
		{"gogc", fmt.Sprintf("%d (GOGC=%q)", gogc, os.Getenv("GOGC"))},
		{"gomemlimit", fmt.Sprintf("%d (GOMEMLIMIT=%q)", debug.SetMemoryLimit(-1), os.Getenv("GOMEMLIMIT"))},
	}
}

// sourceHash digests go.mod and every .go file of the module the benchmark
// runs from (the working directory), so results from a checkout without git
// metadata still name the code they measured.
func sourceHash() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
