// Command perfbench is legodb's benchmark. Each workload times exactly
// one op kind over a seeded op sequence, checks every answer against an
// oracle that does not use the engine, and prints its metrics; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (measured
// untraced); with --trace 1 they are the per-layer ones of a traced
// replay. See README.md for the workloads, the metrics and the
// layer → end-to-end table. Run it from the repository root:
//
//	bash perfbench/run.sh --workload serve-lookup --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --smoke                 # every workload, toy sizes
//	bash perfbench/run.sh --workload advise --repeat 5
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them, measured untraced.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MB"},
	{"advised_cost", "cost"},
	{"store_bytes_per_xml_byte", "ratio"},
	{"snapshot_save_ms", "ms"},
	{"snapshot_open_ms", "ms"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"core.evals_per_op", "count"},
	{"core.translations_per_op", "count"},
	{"core.iterations_per_op", "count"},
	{"core.query_cache_hit_ratio", "ratio"},
	{"core.cost_cache_hit_ratio", "ratio"},
	{"core.search_us", "us"},
	{"plan.blocks_requested_per_op", "count"},
	{"plan.blocks_costed_per_op", "count"},
	{"relational.map_calls_per_op", "count"},
	{"xquery.translate_calls_per_op", "count"},
	{"optimizer.cost_calls_per_op", "count"},
	{"xstats.annotate_calls_per_op", "count"},
	{"relational.map_us", "us"},
	{"xquery.translate_us", "us"},
	{"optimizer.cost_us", "us"},
	{"xstats.annotate_us", "us"},
	{"relational.map_cpu_share", "ratio"},
	{"xquery.translate_cpu_share", "ratio"},
	{"optimizer.cost_cpu_share", "ratio"},
	{"xstats.annotate_cpu_share", "ratio"},
	{"server.decode_us", "us"},
	{"legodb.prepare_us", "us"},
	{"legodb.run_us", "us"},
	{"server.encode_us", "us"},
	{"server.self_us", "us"},
	{"engine.tuples_read_per_op", "count"},
	{"engine.bytes_read_per_op", "bytes"},
	{"engine.probes_per_op", "count"},
	{"engine.scans_per_op", "count"},
	{"engine.tuples_out_per_op", "count"},
	{"engine.rows_returned_per_op", "count"},
	{"legodb.advise_s", "s"},
	{"shred.load_s", "s"},
	{"shred.insert_us", "us"},
	{"shred.delete_us", "us"},
	{"legodb.save_encode_ms", "ms"},
	{"fsio.save_file_ms", "ms"},
	{"colfile.open_ms", "ms"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"bench.op_self_us", "us"},
	{"trace.overhead_us", "us"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans_per_op", "count"},
}

// spanMetrics maps span names to the per-layer metric of their median
// duration, with the factor from microseconds to the metric's unit.
var spanMetrics = map[string]struct {
	metric string
	scale  float64
}{
	"core.search":        {"core.search_us", 1},
	"server.decode":      {"server.decode_us", 1},
	"legodb.prepare":     {"legodb.prepare_us", 1},
	"legodb.run":         {"legodb.run_us", 1},
	"server.encode":      {"server.encode_us", 1},
	"shred.insert":       {"shred.insert_us", 1},
	"shred.delete":       {"shred.delete_us", 1},
	"legodb.advise":      {"legodb.advise_s", 1e-6},
	"shred.load":         {"shred.load_s", 1e-6},
	"legodb.save_encode": {"legodb.save_encode_ms", 1e-3},
	"fsio.save_file":     {"fsio.save_file_ms", 1e-3},
	"colfile.open":       {"colfile.open_ms", 1e-3},
}

// scale sizes a run: the full benchmark, or the seconds-long smoke mode
// that only proves the benchmark code and its oracles work.
type scale struct {
	lookupShows, joinShows, adviseDocShows int
	ops                                    int // ops per client; 0 = run for --seconds
	setups                                 int // at least this many set-ups
	snapshotCycles                         int // at least this many timed snapshot cycles
}

var (
	fullScale  = scale{lookupShows: 500, joinShows: 100, adviseDocShows: 100, setups: 3, snapshotCycles: 10}
	smokeScale = scale{lookupShows: 20, joinShows: 20, adviseDocShows: 20, ops: 4, setups: 1, snapshotCycles: 2}
)

// Cheap set-ups repeat until setupBudget is spent (at most maxSetups).
const (
	setupBudget = 3 * time.Second
	maxSetups   = 15
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	workDir  string // scratch space inside the checkout
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// workloads are the benchmark's workloads, in BENCHMARK.json's order;
// README.md says why each was chosen.
var workloads = []string{"advise", "serve-lookup", "serve-join", "serve-write"}

// report collects one run's results. Clients record outcomes
// concurrently; everything else is set from the workload's goroutine.
type report struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string
	e2e       map[string]float64
	layers    map[string]float64
	lines     []string
	loopRSS   []float64 // MB, sampled during the timed loops
}

func newReport() *report {
	return &report{e2e: make(map[string]float64), layers: make(map[string]float64)}
}

// count records one attempted op; a non-nil err is a failed op (an
// error, a non-2xx status or an oracle mismatch).
func (r *report) count(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 5 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

// problem records a failed check that is not an op.
func (r *report) problem(format string, args ...any) {
	r.count(fmt.Errorf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) warn(format string, args ...any) {
	r.note("WARNING: "+format, args...)
}

func (r *report) setE2E(name string, v float64, detail string) {
	r.e2e[name] = v
	r.note("%s = %.6g (%s)", name, v, detail)
}

func (r *report) setLayer(name string, v float64) { r.layers[name] = v }

func (r *report) setTraceOverhead(tracedP50, plainP50 float64) {
	r.setLayer("trace.overhead_us", (tracedP50-plainP50)*1e3)
	r.setLayer("trace.overhead_ratio", (tracedP50-plainP50)/plainP50)
}

// spanLayers derives the span-based per-layer metrics and prints each
// span's median duration and self time.
func (r *report) spanLayers(rec *recorder) {
	stats := rec.summarize()
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	r.note("span self time (median per span, µs):")
	for _, n := range names {
		st := stats[n]
		r.note("  %-20s n=%-7d dur_p50=%-12.2f self_p50=%-12.2f self_total=%.3fs", n, st.count, st.durUs, st.selfUs, st.totalSelfS)
		if m, ok := spanMetrics[n]; ok {
			r.setLayer(m.metric, st.durUs*m.scale)
		}
	}
	if op, ok := stats["op"]; ok {
		r.setLayer("bench.op_self_us", op.selfUs)
		ops := make(map[int]bool)
		for _, s := range rec.spans {
			if s.parent == -1 && s.name == "op" {
				ops[s.op] = true
			}
		}
		n := 0
		for _, s := range rec.spans {
			if ops[s.op] {
				n++
			}
		}
		r.setLayer("trace.spans_per_op", float64(n)/float64(len(ops)))
	}
}

func (r *report) correct() bool { return r.failed == 0 }

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runWorkload(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var err error
	switch cfg.workload {
	case "advise":
		err = runAdvise(ctx, cfg, rec, rep)
	default:
		wl, ok := serveWorkloads[cfg.workload]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (one of %s)", cfg.workload, workloadNames())
		}
		err = runServe(ctx, cfg, wl, rec, rep)
	}
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rep.spanLayers(rec)
		path := filepath.Join(cfg.workDir, "trace-"+cfg.workload+".tsv")
		if err := writeSpans(rec, path); err != nil {
			return nil, err
		}
		rep.note("spans written to %s", path)
	}
	rss := latencies(rep.loopRSS).sorted()
	rep.setE2E("rss_mb", quantile(rss, 0.5), fmt.Sprintf("median of %d samples during the timed loop, max %.1f", len(rss), rss[len(rss)-1]))
	rep.note("process peak RSS, set-up included: %.1f MB", maxRSSMB())
	rep.note("fail_ratio = %.6g (%d failed of %d attempted)", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	for _, p := range rep.problems {
		rep.note("FAILED: %s", p)
	}
	return rep, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "how long the timed loop runs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	smoke := fs.Bool("smoke", false, "toy sizes and a few ops, every workload unless --workload is given")
	repeat := fs.Int("repeat", 0, "run N times with seeds seed..seed+N-1 and print each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	workDir := filepath.Join(buildDir(), "work")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *repeat > 0 {
		return repeatRuns(args, *workload, *seed, *repeat, stdout, stderr)
	}
	if *smoke {
		return smokeRuns(*workload, *seed, workDir, stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: fullScale, workDir: workDir}
	host0, start := readHost(), time.Now()
	rep, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s elapsed=%.1fs\n", runMeta(cfg.seed, host0, readHost()), time.Since(start).Seconds())
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	defs := endToEnd
	values := rep.e2e
	if cfg.trace {
		defs, values = perLayer, rep.layers
	}
	res := result{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(stderr, "perfbench: %s: end-to-end metric %s was not measured\n", cfg.workload, d.name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted == 0 {
		fmt.Fprintf(stderr, "perfbench: %s: no op attempted\n", cfg.workload)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// buildDir is where the benchmark keeps its binary and scratch files:
// $CARGO_TARGET_DIR when set (run.sh sets it), else .bench_build.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func workloadNames() string {
	return strings.Join(workloads, ", ")
}

// smokeRuns runs every workload (or the one named) at toy size, untraced
// and traced, and reports whether each completed with every oracle
// passing.
func smokeRuns(only string, seed int64, workDir string, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range workloads {
		if only != "" && w != only {
			continue
		}
		for _, traced := range []bool{false, true} {
			start := time.Now()
			rep, err := runWorkload(context.Background(), config{workload: w, seed: seed, trace: traced, scale: smokeScale, workDir: workDir})
			switch {
			case err != nil:
				fmt.Fprintf(stderr, "smoke %s trace=%t: %v\n", w, traced, err)
				code = 1
			case !rep.correct():
				fmt.Fprintf(stderr, "smoke %s trace=%t: %d of %d failed: %s\n", w, traced, rep.failed, rep.attempted, strings.Join(rep.problems, "; "))
				code = 1
			default:
				fmt.Fprintf(stdout, "smoke %s trace=%t: ok, %d ops checked in %.1fs\n", w, traced, rep.attempted, time.Since(start).Seconds())
			}
		}
	}
	return code
}

func writeSpans(rec *recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeTSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
