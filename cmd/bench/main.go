// Command bench regenerates every table and figure of the paper's
// evaluation (Section V) on the dataset substitutes described in DESIGN.md.
//
// Usage:
//
//	bench [flags] <experiment> [<experiment> ...]
//	bench all
//
// Experiments (paper artifact in parentheses):
//
//	datasets          dataset statistics table            (Fig. 5)
//	exp1-dblp         time on DBLP snapshots              (Fig. 6a left)
//	exp1-web          time vs K on the web workload       (Fig. 6a middle)
//	exp1-patent       time vs K on the citation workload  (Fig. 6a right)
//	exp1-amortized    Build-MST vs Share-Sums breakdown   (Fig. 6b)
//	exp1-density      time + share ratio vs density       (Fig. 6c)
//	exp2-memory       intermediate memory per algorithm   (Fig. 6d)
//	exp3-convergence  iterations vs accuracy              (Fig. 6e)
//	exp3-bounds       LambertW & Log estimate table       (Fig. 6f)
//	exp4-ndcg         NDCG@p of OIP-DSR vs OIP-SR         (Fig. 6g)
//	exp4-topk         top-30 query + inversions           (Fig. 6h)
//	scaling           speedup vs worker-pool size         (parallel sweep)
//	batch             shared-traversal batched queries    (simrankd /v1/batch + /v1/join)
//	serve             closed-loop load vs admission control (simrankd overload)
//	memory            tiled engine under a memory cap     (spill-to-disk)
//	engines           walk vs linearized engine accuracy/latency (?engine= seam)
//	ablate            design-choice ablations             (DESIGN.md)
//
// The -scale flag shrinks the workloads (absolute numbers change, shapes do
// not); -quick is shorthand for a fast smoke run. -workers sets the
// worker-pool size for the timed experiments (0 = all CPUs). One NDJSON
// record per measured data point is always written to the file named by
// benchJSONFile in the working directory (the perf trajectory file); -json FILE (or "-" for
// stdout) tees the same records to a second sink.
package main

import (
	"flag"
	"fmt"
	"os"
)

type config struct {
	scale int   // down-scale factor for workload sizes
	seed  int64 // generator seed
}

// benchWorkers is the -workers flag: the worker-pool size timeAlgo passes to
// engines unless an experiment overrides it (0 = all CPUs, 1 = serial).
var benchWorkers int

func main() {
	var (
		scale    = flag.Int("scale", 1, "down-scale workloads by this factor")
		seed     = flag.Int64("seed", 1, "generator seed")
		quick    = flag.Bool("quick", false, "shorthand for -scale 4")
		workers  = flag.Int("workers", 0, "worker pool for timed experiments (0 = all CPUs, 1 = serial)")
		jsonPath = flag.String("json", "", "emit NDJSON records to this file (\"-\" = stdout)")
	)
	flag.Parse()
	benchWorkers = *workers
	cfg := config{scale: *scale, seed: *seed}
	if *quick && *scale == 1 {
		cfg.scale = 4
	}
	if cfg.scale < 1 {
		cfg.scale = 1
	}

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		fmt.Fprintln(os.Stderr, "\nrun \"bench all\" or pick experiments: datasets exp1-dblp exp1-web exp1-patent exp1-amortized exp1-density exp2-memory exp3-convergence exp3-bounds exp4-ndcg exp4-topk scaling batch serve memory engines ablate")
		os.Exit(2)
	}

	experiments := map[string]func(config){
		"datasets":         runDatasets,
		"exp1-dblp":        runExp1DBLP,
		"exp1-web":         runExp1Web,
		"exp1-patent":      runExp1Patent,
		"exp1-amortized":   runExp1Amortized,
		"exp1-density":     runExp1Density,
		"exp2-memory":      runExp2Memory,
		"exp3-convergence": runExp3Convergence,
		"exp3-bounds":      runExp3Bounds,
		"exp4-ndcg":        runExp4NDCG,
		"exp4-topk":        runExp4TopK,
		"scaling":          runScaling,
		"batch":            runBatchWorkload,
		"serve":            runServeWorkload,
		"memory":           runMemoryWorkload,
		"engines":          runEnginesWorkload,
		"ablate":           runAblations,
	}
	order := []string{
		"datasets", "exp1-dblp", "exp1-web", "exp1-patent", "exp1-amortized",
		"exp1-density", "exp2-memory", "exp3-convergence", "exp3-bounds",
		"exp4-ndcg", "exp4-topk", "scaling", "batch", "serve", "memory", "engines", "ablate",
	}

	if len(args) == 1 && args[0] == "all" {
		args = order
	}
	// Validate every experiment name before opening (and truncating) the
	// -json sink, so a usage error cannot destroy a previous run's records.
	for _, name := range args {
		if _, ok := experiments[name]; !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
	if err := initJSON(*jsonPath, args); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	defer closeJSON()
	for _, name := range args {
		experiments[name](cfg)
	}
}

func header(title, artifact string) {
	fmt.Println()
	fmt.Printf("=== %s (%s) ===\n", title, artifact)
}
