// Top-k serving: answer similarity queries from a walk index instead of
// an all-pairs matrix.
//
// Builds a DBLP-like co-authorship graph, precomputes the walk index of
// simrank/query (the structure cmd/simrankd serves from), and answers a
// few top-k queries three ways: raw index estimates, exact-reranked
// estimates, and — since the graph is small enough — the batch OIP-SR
// engine as ground truth. Also demonstrates the Save/Load round trip the
// daemon uses to skip rebuilds at startup.
//
//	go run ./examples/topk
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"oipsr/graph/gen"
	"oipsr/simrank"
	"oipsr/simrank/query"
)

func main() {
	// A small co-authorship network: communities give vertices genuinely
	// similar neighbors, so top-k answers are non-trivial.
	g := gen.CoauthorGraph(400, 4, 42)
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	// Build the index: R coupled reverse walks per vertex, deterministic
	// for a fixed seed. 4*n*R*K bytes, no n^2 state anywhere.
	idx, err := query.BuildIndex(g, query.Options{Walks: 400, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: R=%d walks of horizon K=%d per vertex (%d KiB)\n\n",
		idx.Walks(), idx.Horizon(), idx.Bytes()/1024)

	// Ground truth for comparison: the batch engine with the same C and
	// truncation. This is the Theta(n^2) computation the index avoids.
	exact, _, err := simrank.Compute(g, simrank.Options{
		Algorithm: simrank.OIPSR, C: idx.C(), K: idx.Horizon(),
	})
	if err != nil {
		log.Fatal(err)
	}

	const k = 5
	for _, q := range []int{10, 123, 307} {
		estimated, err := idx.TopK(context.Background(), q, k, nil)
		if err != nil {
			log.Fatal(err)
		}
		reranked, err := idx.TopK(context.Background(), q, k, &query.TopKOptions{Rerank: true})
		if err != nil {
			log.Fatal(err)
		}
		batch := exact.TopK(q, k)

		fmt.Printf("top-%d most similar to vertex %d:\n", k, q)
		fmt.Printf("     %-22s %-22s %s\n", "index estimate", "index + rerank", "batch OIP-SR (exact)")
		for i := 0; i < k; i++ {
			fmt.Printf("%3d. v%-5d s=%.4f       v%-5d s=%.4f       v%-5d s=%.4f\n", i+1,
				estimated[i].Vertex, estimated[i].Score,
				reranked[i].Vertex, reranked[i].Score,
				batch[i].Vertex, batch[i].Score)
		}
		fmt.Println()
	}

	// The daemon's startup path: persist the index, reload it, re-attach
	// the graph, from which the order is sorted and against which reranks
	// run. Loaded indexes answer bit-identically.
	path := filepath.Join(os.TempDir(), "topk-example.idx")
	if err := idx.SaveFile(path); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)
	loaded, err := query.LoadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := loaded.AttachGraph(g); err != nil {
		log.Fatal(err)
	}
	a, _ := idx.TopK(context.Background(), 10, k, nil)
	b, _ := loaded.TopK(context.Background(), 10, k, nil)
	same := len(a) == len(b)
	for i := range a {
		same = same && a[i] == b[i]
	}
	fmt.Printf("save/load round trip (%d KiB on disk): identical top-k = %v\n",
		sizeKiB(path), same)
}

func sizeKiB(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size() / 1024
}
