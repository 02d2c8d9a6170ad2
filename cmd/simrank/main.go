// Command simrank computes all-pairs SimRank scores on a graph and answers
// top-k similarity queries.
//
//	simrank -graph web.txt -algo oip-sr -c 0.6 -eps 1e-3 -query 17 -top 10
//	simrank -gen web -n 1000 -d 11 -algo oip-dsr -query 5 -top 20 -stats
//	simrank -gen web -n 20000 -block 2048 -max-mem 2000000000 -query 5 -stats
//
// Graphs come either from an edge-list file (-graph) or from a built-in
// generator (-gen, see cmd/gengraph for the types). The -algo values are
// the engine registry's names (oipsr/simrank/engine) — oip-sr is the
// default; run with -algo help to list what this build registers.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/graph/gio"
	"oipsr/simrank"
	"oipsr/simrank/engine"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "edge-list file to load")
		genType   = flag.String("gen", "", "generate instead of load: web | citation | coauthor | er | rmat")
		n         = flag.Int("n", 1000, "generator: vertices")
		d         = flag.Int("d", 8, "generator: average degree")
		seed      = flag.Int64("seed", 1, "seed of the generator, mtx-sr's SVD and monte-carlo's walks")
		algo      = flag.String("algo", "oip-sr", "algorithm: "+engine.NameList(" | ")+" (or \"help\" to list)")
		c         = flag.Float64("c", 0.6, "damping factor C")
		k         = flag.Int("k", 0, "iterations (0 = derive from -eps)")
		eps       = flag.Float64("eps", 1e-3, "desired accuracy")
		rank      = flag.Int("rank", 0, "mtx-sr SVD rank (0 = sqrt(n))")
		walks     = flag.Int("walks", 0, "monte-carlo fingerprints (0 = 100)")
		workers   = flag.Int("workers", 0, "iteration worker pool size (0 = all CPUs, 1 = serial)")
		block     = flag.Int("block", 0, "tiled backend block size B (0 = dense; oip-sr and oip-dsr only)")
		maxMem    = flag.Int64("max-mem", 0, "tiled backend (needs -block): cap resident score-matrix bytes, spilling tiles to disk (0 = unbounded)")
		spillDir  = flag.String("spill-dir", "", "tiled backend (needs -block): directory for spilled tiles (default: fresh temp dir)")
		query     = flag.Int("query", -1, "query vertex for a top-k search (-1 = none)")
		top       = flag.Int("top", 10, "top-k size")
		pair      = flag.String("pair", "", "print a single score, format \"a,b\"")
		stats     = flag.Bool("stats", false, "print run statistics")
	)
	flag.Parse()

	// -algo help (and any unregistered name) answers from the registry, the
	// single source of truth for what this build can compute.
	if *algo == "help" {
		fmt.Printf("registered algorithms: %s\n", engine.NameList(", "))
		return
	}
	if !simrank.Algorithm(*algo).Valid() {
		fmt.Fprintf(os.Stderr, "simrank: unknown algorithm %q (registered: %s)\n", *algo, engine.NameList(", "))
		os.Exit(2)
	}
	if *query < -1 {
		fmt.Fprintf(os.Stderr, "simrank: -query %d: want a vertex or -1\n", *query)
		os.Exit(2)
	}
	if *top < 1 {
		fmt.Fprintf(os.Stderr, "simrank: -top %d: want at least 1\n", *top)
		os.Exit(2)
	}
	opts := simrank.Options{
		Algorithm:      simrank.Algorithm(*algo),
		C:              *c,
		K:              *k,
		Eps:            *eps,
		Rank:           *rank,
		Walks:          *walks,
		Seed:           *seed,
		Workers:        *workers,
		BlockSize:      *block,
		MaxMemoryBytes: *maxMem,
		SpillDir:       *spillDir,
	}
	// The tiled flags (-block, -max-mem, -spill-dir) are checked against
	// the engine here, before the graph is built.
	if err := opts.Validate(); err != nil {
		fail(2, err)
	}

	g, err := loadGraph(*graphPath, *genType, *n, *d, *seed)
	if err != nil {
		fail(1, err)
	}
	fmt.Fprintf(os.Stderr, "graph: %s\n", graph.ComputeStats(g))

	// Validate request flags before computing: exiting later would skip the
	// deferred Close that releases the tiled backend's spill directory.
	var pairA, pairB int
	if *pair != "" {
		if _, err := fmt.Sscanf(*pair, "%d,%d", &pairA, &pairB); err != nil {
			fmt.Fprintf(os.Stderr, "simrank: bad -pair %q: %v\n", *pair, err)
			os.Exit(2)
		}
		if pairA < 0 || pairB < 0 || pairA >= g.NumVertices() || pairB >= g.NumVertices() {
			fmt.Fprintf(os.Stderr, "simrank: -pair %q out of range\n", *pair)
			os.Exit(2)
		}
	}
	if *query >= g.NumVertices() {
		fmt.Fprintf(os.Stderr, "simrank: query vertex %d out of range\n", *query)
		os.Exit(2)
	}

	scores, st, err := simrank.Compute(g, opts)
	if err != nil {
		fail(1, err)
	}
	defer scores.Close()

	if *stats {
		fmt.Printf("algorithm      %s\n", st.Algorithm)
		fmt.Printf("iterations     %d\n", st.Iterations)
		fmt.Printf("plan time      %v\n", st.PlanTime)
		fmt.Printf("compute time   %v\n", st.ComputeTime)
		fmt.Printf("inner adds     %d\n", st.InnerAdds)
		fmt.Printf("outer adds     %d\n", st.OuterAdds)
		fmt.Printf("aux memory     %d B\n", st.AuxBytes)
		fmt.Printf("state memory   %d B\n", st.StateBytes)
		if st.NumSets > 0 {
			fmt.Printf("share ratio    %.3f (d_sym %.2f over %d sets)\n", st.ShareRatio, st.AvgDiff, st.NumSets)
		}
		if st.Rank > 0 {
			fmt.Printf("svd rank       %d\n", st.Rank)
		}
		if st.Residual > 0 {
			fmt.Printf("residual       %.3g\n", st.Residual)
		}
		if *block > 0 {
			fmt.Printf("tile peak      %d B (spills %d, loads %d)\n", st.TilePeakBytes, st.TileSpills, st.TileLoads)
		}
	}

	if *pair != "" {
		fmt.Printf("s(%d,%d) = %.6f\n", pairA, pairB, scores.Score(pairA, pairB))
	}

	if *query >= 0 {
		fmt.Printf("top-%d most similar to vertex %d:\n", *top, *query)
		for i, r := range scores.TopK(*query, *top) {
			fmt.Printf("%3d. vertex %-8d score %.6f\n", i+1, r.Vertex, r.Score)
		}
	}
}

// fail prints err as one stderr line under the command's prefix, which the
// simrank library's errors already carry, and exits with code.
func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "simrank:", strings.TrimPrefix(err.Error(), "simrank: "))
	os.Exit(code)
}

func loadGraph(path, genType string, n, d int, seed int64) (*graph.Graph, error) {
	switch {
	case path != "" && genType != "":
		return nil, fmt.Errorf("use either -graph or -gen, not both")
	case path != "":
		return gio.LoadEdgeListFile(path)
	case genType != "":
		switch genType {
		case "web":
			return gen.WebGraph(n, d, seed), nil
		case "citation":
			return gen.CitationGraph(n, d, seed), nil
		case "coauthor":
			return gen.CoauthorGraph(n, d, seed), nil
		case "er":
			return gen.ErdosRenyi(n, n*d, seed), nil
		case "rmat":
			return gen.RMAT(n, n*d, gen.DefaultRMAT, seed), nil
		default:
			return nil, fmt.Errorf("unknown generator %q", genType)
		}
	default:
		return nil, fmt.Errorf("provide -graph FILE or -gen TYPE")
	}
}
