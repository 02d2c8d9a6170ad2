package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/simrank/query"
)

// runIndexWorkload measures the on-disk walk-index format: the
// delta/varint-compressed posting blocks against the dense in-memory
// payload (4·n·R·K bytes), and the in-memory (decoded) serving path against
// the demand-paged (mmap-backed) one.
//
// Three numbers matter. Bytes per vertex — the coupled walks coalesce, so
// shared suffixes delta-encode to almost nothing and the file is required
// to come in at no more than half of the dense payload on these graphs (a
// hard gate: a regression exits non-zero, which the CI index smoke relies
// on). Cold single-source latency — a mapped index answers its first query
// straight from the page cache after decoding only the blocks it touches,
// which is the entire point of paying the decode on the query path. Warm
// latency — once the decoded-block LRU holds the working set, mapped
// queries must sit within noise of dense ones.
//
// Before anything is timed, the backings are equivalence-checked: the
// built index, the decoded file and the mapped file must answer the sample
// queries bit-identically, before and after an edit batch (which for the
// mapped index also rewrites its backing file). Divergence exits non-zero.
func runIndexWorkload(cfg config) {
	header("On-disk format: compressed file + demand paging vs dense in memory", "walkindex format v2")

	dir, err := os.MkdirTemp("", "bench-index-*")
	must(err)
	defer os.RemoveAll(dir)

	type workload struct {
		name  string
		g     *graph.Graph
		walks int
	}
	nWeb := 2000 / cfg.scale
	if nWeb < 300 {
		nWeb = 300
	}
	nPat := 2600 / cfg.scale
	if nPat < 400 {
		nPat = 400
	}
	workloads := []workload{
		{"berkstan*", gen.WebGraph(nWeb, 11, cfg.seed), 100},
		{"patent*", gen.CitationGraph(nPat, 4, cfg.seed), 100},
	}

	fmt.Printf("%-10s | %12s %12s %8s | %12s %12s | %12s %12s %12s\n",
		"workload", "dense bytes", "file bytes", "ratio", "B/vtx dense", "B/vtx file", "cold us", "warm us", "warm nopf us")

	for _, w := range workloads {
		n := w.g.NumVertices()
		idx, err := query.BuildIndex(w.g, query.Options{Walks: w.walks, Seed: cfg.seed, Workers: benchWorkers})
		must(err)

		path := filepath.Join(dir, w.name+".idx")
		must(idx.SaveFile(path))
		denseBytes, fileBytes := 4*int64(n)*int64(idx.Walks())*int64(idx.Horizon()), fileSize(path)
		ratio := float64(fileBytes) / float64(denseBytes)

		// Streaming-builder equivalence gate: the out-of-core build under a
		// budget small enough to force many slices must publish exactly the
		// bytes the materialized save wrote.
		streamPath := filepath.Join(dir, w.name+".stream.idx")
		_, err = query.BuildFileStreaming(w.g, query.Options{Walks: w.walks, Seed: cfg.seed, Workers: benchWorkers}, streamPath, 64<<10)
		must(err)
		if !filesEqual(path, streamPath) {
			fmt.Fprintf(os.Stderr, "bench: index: %s: streaming build differs from materialized save\n", w.name)
			os.Exit(1)
		}

		// Equivalence gate across the backings, then through an edit batch
		// (the mapped index flushes it back to path).
		dense := idx
		decoded, err := query.LoadFile(path)
		must(err)
		mapped, err := query.LoadFileMapped(path, query.MappedOptions{})
		must(err)
		sample := queryVertices(n, 8)
		checkIndexEquivalence(w.name+" load", sample, dense, decoded, mapped)
		edits := []graph.Edit{
			{Op: graph.EditAdd, U: sample[0], V: sample[1]},
			{Op: graph.EditAdd, U: sample[2], V: sample[0]},
			{Op: graph.EditRemove, U: sample[0], V: sample[1]},
		}
		for _, ix := range []*query.Index{dense, decoded, mapped} {
			must(ix.AttachGraph(w.g))
			_, err := ix.ApplyEdits(edits, benchWorkers)
			must(err)
		}
		checkIndexEquivalence(w.name+" edited", sample, dense, decoded, mapped)
		// The flushed file must reproduce the live mapped index on its own.
		reloaded, err := query.LoadFileMapped(path, query.MappedOptions{})
		must(err)
		checkIndexEquivalence(w.name+" reloaded", sample, mapped, reloaded)
		must(reloaded.Close())
		must(mapped.Close())

		// Cold: a fresh mapped open answering its first query (decodes only
		// the touched blocks) — against a fresh COPY of the file with its
		// page cache dropped, because path itself was just written and
		// read, so timing it again would measure the page cache, not the
		// disk. Warm: the same query once the block LRU holds the working
		// set, with the prefetch pool on (default) and off, so the readahead
		// win is visible. Dense-decoded latency is the reference.
		q := sample[0]
		coldPath := filepath.Join(dir, w.name+".cold.idx")
		must(copyFile(coldPath, path))
		must(dropPageCache(coldPath))
		t0 := time.Now()
		cold, err := query.LoadFileMapped(coldPath, query.MappedOptions{})
		must(err)
		_, err = cold.SingleSource(context.Background(), q)
		must(err)
		coldLat := time.Since(t0)
		warmLat := timeSingleSource(cold, q, 20)
		denseLat := timeSingleSource(decoded, q, 20)
		must(cold.Close())
		nopf, err := query.LoadFileMapped(path, query.MappedOptions{PrefetchBlocks: -1})
		must(err)
		warmNoPf := timeSingleSource(nopf, q, 20)
		must(nopf.Close())

		fmt.Printf("%-10s | %12d %12d %7.1f%% | %12.1f %12.1f | %12d %12d %12d\n",
			w.name, denseBytes, fileBytes, ratio*100,
			float64(denseBytes)/float64(n), float64(fileBytes)/float64(n),
			coldLat.Microseconds(), warmLat.Microseconds(), warmNoPf.Microseconds())
		emitJSON("index", map[string]any{
			"workload": w.name, "n": n, "walks": w.walks,
			"dense_bytes": denseBytes, "v2_bytes": fileBytes, "compression_ratio": ratio,
			"bytes_per_vertex_dense": float64(denseBytes) / float64(n),
			"bytes_per_vertex_v2":    float64(fileBytes) / float64(n),
			"cold_us_mapped":         coldLat.Microseconds(), "warm_us_mapped": warmLat.Microseconds(),
			"warm_us_mapped_noprefetch": warmNoPf.Microseconds(),
			"warm_us_dense":             denseLat.Microseconds(),
			"equivalence":               "dense/decoded/mapped/streamed bit-identical incl. edits",
		})

		if ratio > 0.5 {
			fmt.Fprintf(os.Stderr, "bench: index: %s file is %.1f%% of the dense payload, want <= 50%%\n", w.name, ratio*100)
			os.Exit(1)
		}
	}
	fmt.Println("\nfile <= 50% of dense verified; dense/decoded/mapped answers bit-identical before and after edits; streaming build byte-identical to materialized save")

	runStreamingBuild(cfg, dir)
}

// copyFile copies src to dst (truncating dst).
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// filesEqual reports whether two files hold identical bytes.
func filesEqual(a, b string) bool {
	da, err := os.ReadFile(a)
	must(err)
	db, err := os.ReadFile(b)
	must(err)
	return bytes.Equal(da, db)
}

// checkIndexEquivalence exits non-zero unless every index answers the
// sample single-source queries bit-identically to the first one.
func checkIndexEquivalence(stage string, sample []int, indexes ...*query.Index) {
	ctx := context.Background()
	for _, q := range sample {
		want, err := indexes[0].SingleSource(ctx, q)
		must(err)
		for i, ix := range indexes[1:] {
			got, err := ix.SingleSource(ctx, q)
			must(err)
			for v := range want {
				if got[v] != want[v] {
					fmt.Fprintf(os.Stderr, "bench: index: %s: backing %d (%s) diverges from %s at source %d target %d: %v != %v\n",
						stage, i+1, ix.Backend(), indexes[0].Backend(), q, v, got[v], want[v])
					os.Exit(1)
				}
			}
		}
	}
}

// timeSingleSource reports the per-query latency of reps single-source
// queries for vertex q.
func timeSingleSource(ix *query.Index, q, reps int) time.Duration {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		_, err := ix.SingleSource(context.Background(), q)
		must(err)
	}
	return time.Since(t0) / time.Duration(reps)
}

// fileSize returns the size of path in bytes.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	must(err)
	return fi.Size()
}
