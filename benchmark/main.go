// Command benchmark is the repository's benchmark: four fixed-work
// workloads over the sweep engines and the serving tier, seven end-to-end
// metrics each, and a traced run that splits them by layer. See README.md
// in this directory for the design and the committed numbers.
//
//	bash benchmark/run.sh --workload serve-zipf --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --workload sweep-web --seed 1 --trace 1
//	bash benchmark/run.sh --workload mapped-edits --repeat 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef mirrors one entry of BENCHMARK.json (TestBenchmarkJSON keeps
// the two in step). Bound is the share of the parent's median by which an
// end-to-end metric may worsen; per-layer metrics have none.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// defaultSeconds is run_seconds in BENCHMARK.json: the measured phase of
// every workload is sized to take about this long on the 2-vCPU sandbox.
// --seconds scales the measured op counts in proportion; the amount of
// work is a function of the arguments and never of the clock.
const defaultSeconds = 12

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"second_op_p50_ms", "ms", "lower", 0.25},
	{"index_bytes_per_vertex", "B", "lower", 0.02},
	{"precision_at_10", "ratio", "higher", 0.05},
}

var perLayer = []metricDef{
	{Name: "graph.gen_s", Unit: "s", Better: "lower"},
	{Name: "graph.apply_edits_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.share_ratio", Unit: "ratio", Better: "higher"},
	{Name: "partition.avg_diff", Unit: "count", Better: "lower"},
	{Name: "core.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "core.inner_adds", Unit: "count", Better: "lower"},
	{Name: "core.outer_adds", Unit: "count", Better: "lower"},
	{Name: "core.aux_bytes", Unit: "B", Better: "lower"},
	{Name: "core.adds_vs_psum_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dsr.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "dsr.iterations", Unit: "count", Better: "lower"},
	{Name: "psum.compute_ms", Unit: "ms", Better: "lower"},
	{Name: "psum.adds", Unit: "count", Better: "lower"},
	{Name: "simmat.state_bytes", Unit: "B", Better: "lower"},
	{Name: "walkindex.build_s", Unit: "s", Better: "lower"},
	{Name: "walkindex.stream_build_s", Unit: "s", Better: "lower"},
	{Name: "walkindex.open_mapped_ms", Unit: "ms", Better: "lower"},
	{Name: "walkindex.prepare_updates_s", Unit: "s", Better: "lower"},
	{Name: "walkindex.dense_sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "walkindex.mapped_sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "walkindex.mapped_vs_dense_ratio", Unit: "ratio", Better: "lower"},
	{Name: "walkindex.multisource16_ms", Unit: "ms", Better: "lower"},
	{Name: "walkindex.update_ms", Unit: "ms", Better: "lower"},
	{Name: "walkindex.walks_repaired_per_batch", Unit: "count", Better: "lower"},
	{Name: "walkindex.file_bytes", Unit: "B", Better: "lower"},
	{Name: "walkindex.dense_bytes", Unit: "B", Better: "lower"},
	{Name: "query.rank_ms", Unit: "ms", Better: "lower"},
	{Name: "query.rerank_ms", Unit: "ms", Better: "lower"},
	{Name: "query.rerank_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "query.apply_edits_ms", Unit: "ms", Better: "lower"},
	{Name: "atomicio.rewrite_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.build_s", Unit: "s", Better: "lower"},
	{Name: "shard.partial_scores_ms", Unit: "ms", Better: "lower"},
	{Name: "simrankd.cache_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "simrankd.request_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "simrankd.self_ms", Unit: "ms", Better: "lower"},
	{Name: "simrankd.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "simrankd.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "simrankd.degraded_ratio", Unit: "ratio", Better: "lower"},
	{Name: "simrankd.response_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "simrankd.shard_leg_ms", Unit: "ms", Better: "lower"},
	{Name: "simrankd.router_request_ms", Unit: "ms", Better: "lower"},
	{Name: "simrankd.router_self_ms", Unit: "ms", Better: "lower"},
	{Name: "simrankd.router_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "simrankd.edges_request_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.client_floor_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.warmup_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.calibration_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.alloc_kb_per_op", Unit: "kB", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.peak_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}

// config is one run's resolved arguments.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool

	nproc   int    // runtime.NumCPU
	workers int    // engine and index worker pools: max(1, nproc-1), a core stays free
	outDir  string // span files land here
	tmpDir  string // index files live here for the length of the run
}

// resolve fills in what the machine decides and creates the run's
// temporary directory under outDir; the caller removes it.
func (c *config) resolve(outDir string) error {
	c.nproc = runtime.NumCPU()
	c.workers = max(1, c.nproc-1)
	c.outDir = outDir
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var err error
	c.tmpDir, err = os.MkdirTemp(outDir, "run-")
	return err
}

// scale sizes a measured op count to --seconds and -quick; at least min.
func (c config) scale(count, min int) int {
	count = count * c.seconds / defaultSeconds
	if c.quick {
		count /= 20
	}
	return max(count, min)
}

// shrink sizes a vertex or warm-up count to -quick; at least min.
func (c config) shrink(count, min int) int {
	if c.quick {
		count /= 20
	}
	return max(count, min)
}

// result is what a workload hands back once its checks have passed.
type result struct {
	e2e       map[string]float64
	layer     map[string]float64 // traced run only
	attempted int
	failed    int
	info      []string // "key=value" lines printed with the run
}

func (r *result) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// workload pairs a name of BENCHMARK.json (which also says why it was
// chosen) with the function that runs it.
type workload struct {
	name string
	run  func(config) (*result, error)
}

var workloads = []workload{
	{"sweep-web", runSweepWeb},
	{"serve-zipf", func(c config) (*result, error) { return runServe(c, false) }},
	{"router-zipf", func(c config) (*result, error) { return runServe(c, true) }},
	{"mapped-edits", runMappedEdits},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var c config
	var trace, repeat, seedStep int
	flag.StringVar(&c.workload, "workload", "", "sweep-web | serve-zipf | router-zipf | mapped-edits")
	flag.Int64Var(&c.seed, "seed", 1, "seed of the op sequence")
	flag.IntVar(&c.seconds, "seconds", defaultSeconds, "scales the measured op counts; the default sizes the measured phase to about that many seconds")
	flag.IntVar(&trace, "trace", 0, "1 = also replay the measured ops under spans and print the per-layer metrics")
	flag.BoolVar(&c.quick, "quick", false, "1/20 size, for tests")
	flag.IntVar(&repeat, "repeat", 0, "run the workload this many times in child processes and report the spread of every end-to-end metric")
	flag.IntVar(&seedStep, "seed-step", 0, "with -repeat: add this to the seed between runs (0 = one seed)")
	flag.Parse()
	c.trace = trace != 0

	w, ok := findWorkload(c.workload)
	if !ok || c.seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q or bad arguments\n", c.workload)
		flag.Usage()
		os.Exit(2)
	}
	if repeat > 0 {
		os.Exit(runRepeat(c, repeat, seedStep))
	}

	if err := c.resolve(buildDir); err != nil {
		fatal(err)
	}
	t0 := time.Now()
	calBefore := calibrate()
	res, err := w.run(c)
	os.RemoveAll(c.tmpDir)
	if err != nil {
		fatal(err)
	}
	calAfter := calibrate()
	res.layer["loadgen.calibration_ms"] = (calBefore + calAfter) / 2
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%t quick=%t\n", c.workload, c.seed, c.seconds, c.trace, c.quick)
	fmt.Printf("nproc=%d gomaxprocs=%d workers=%d go=%s run_wall_s=%.1f\n",
		c.nproc, runtime.GOMAXPROCS(0), c.workers, runtime.Version(), time.Since(t0).Seconds())
	fmt.Printf("machine_calibration_ms before=%.2f after=%.2f\n", calBefore, calAfter)
	fmt.Printf("ops_attempted=%d ops_succeeded=%d ops_failed=%d\n", res.attempted, res.attempted-res.failed, res.failed)
	for _, line := range res.info {
		fmt.Println(line)
	}
	printMetrics(endToEnd, res.e2e)
	defs, values := endToEnd, res.e2e
	if c.trace {
		printMetrics(perLayer, res.layer)
		defs, values = perLayer, res.layer
	}
	fmt.Println(resultLine(defs, values, res))
}

// buildDir holds everything a run leaves behind — the compiled benchmark,
// the index files of mapped-edits while it runs, the span files. It is
// relative to the working directory (the checkout root) and git-ignored.
const buildDir = ".bench_build"

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: FAILED: %v\n", err)
	os.Exit(1)
}

func printMetrics(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Printf("%-36s %16.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run: one JSON object with the metrics
// of defs. A per-layer metric the workload does not exercise reads 0.
func resultLine(defs []metricDef, values map[string]float64, res *result) string {
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{true, res.attempted, res.failed, metrics})
	if err != nil {
		fatal(err)
	}
	return string(line)
}

// spanFile is where a traced run writes its spans.
func spanFile(c config) string {
	return filepath.Join(c.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", c.workload, c.seed))
}

// repeatSetup runs build reps times, tearing down every instance but the
// last, and returns that last instance with the median set-up time: one
// set-up of a second or two is too exposed to a noisy neighbour to carry
// a regression bound.
func repeatSetup[T any](reps int, build func() (T, error), teardown func(T)) (T, float64, error) {
	var inst T
	var secs []float64
	for rep := 0; rep < reps; rep++ {
		if rep > 0 {
			teardown(inst)
		}
		t0 := time.Now()
		var err error
		inst, err = build()
		if err != nil {
			return inst, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return inst, median(secs), nil
}

const setupReps = 3

// memMark is the allocator's state at the start of a phase; layerMetrics
// reports what the whole process allocated and paused for since.
type memMark struct{ start runtime.MemStats }

func markMem() *memMark {
	m := &memMark{}
	runtime.ReadMemStats(&m.start)
	return m
}

func (m *memMark) layerMetrics(ops int, layer map[string]float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	layer["runtime.alloc_kb_per_op"] = float64(now.TotalAlloc-m.start.TotalAlloc) / 1024 / float64(max(ops, 1))
	layer["runtime.gc_pause_ms_total"] = float64(now.PauseTotalNs-m.start.PauseTotalNs) / 1e6
	layer["runtime.peak_heap_mb"] = float64(now.HeapSys) / (1 << 20)
}
