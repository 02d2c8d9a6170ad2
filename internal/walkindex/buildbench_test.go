package walkindex

import (
	"bytes"
	"testing"
	"time"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// benchFamilies are the graph families the walk-index benchmarks time, at
// the contract's scales: web d=11 n=6000 (serve-zipf's shape), citation
// d=4 n=15000 (mapped-edits'), coauthor d=8 n=15000 and R-MAT with
// GTGraph's parameters, n=16384 and 8 edges a vertex.
var benchFamilies = []struct {
	name string
	g    func() *graph.Graph
}{
	{"web-d11-n6000", func() *graph.Graph { return gen.WebGraph(6000, 11, 1) }},
	{"citation-d4-n15000", func() *graph.Graph { return gen.CitationGraph(15000, 4, 1) }},
	{"coauthor-d8-n15000", func() *graph.Graph { return gen.CoauthorGraph(15000, 8, 1) }},
	{"rmat-d8-n16384", func() *graph.Graph { return gen.RMAT(16384, 8*16384, gen.DefaultRMAT, 1) }},
}

// benchBuildOptions are the parameters of the build and open benchmarks:
// the contract's 100 walks a vertex, two workers.
var benchBuildOptions = Options{Walks: 100, Seed: 1, Workers: 2}

// reportMs reports d, summed over b.N operations, as milliseconds per
// operation under unit.
func reportMs(b *testing.B, d time.Duration, unit string) {
	b.ReportMetric(float64(d.Microseconds())/1e3/float64(b.N), unit)
}

// BenchmarkBuild times Build of the full range per graph family, split
// into its two halves: generating the walks into the ragged store
// (walk-ms) and sorting the coalescence order from the graph (sort-ms).
func BenchmarkBuild(b *testing.B) {
	if testing.Short() {
		b.Skip("builds indexes of up to 15000 vertices")
	}
	for _, c := range benchFamilies {
		b.Run(c.name, func(b *testing.B) {
			g, opt := c.g(), benchBuildOptions
			if err := opt.resolve(); err != nil {
				b.Fatal(err)
			}
			n := g.NumVertices()
			var walk, sort time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				ix := newIndex(n, 0, n, opt.K, opt.Walks, opt.C, opt.Seed, walkStore(g, opt, 0, n))
				t1 := time.Now()
				ix.forest = buildForest(ix, g, opt.Workers)
				walk, sort = walk+t1.Sub(t0), sort+time.Since(t1)
			}
			reportMs(b, walk, "walk-ms/op")
			reportMs(b, sort, "sort-ms/op")
		})
	}
}

// BenchmarkOpen times opening a saved index file per graph family, split
// into decoding it into the ragged store (decode-ms), AttachGraph's check
// of the graph against the stored walks (check-ms) and its sort of the
// coalescence order (sort-ms).
func BenchmarkOpen(b *testing.B) {
	if testing.Short() {
		b.Skip("builds indexes of up to 15000 vertices")
	}
	for _, c := range benchFamilies {
		b.Run(c.name, func(b *testing.B) {
			g := c.g()
			built, err := buildFull(g, benchBuildOptions)
			if err != nil {
				b.Fatal(err)
			}
			data := saveBytes(b, built)
			var decode, check, sort time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				f, err := readFile(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				ix := f.newIndex()
				t1 := time.Now()
				if err := ix.checkGraph(g, benchBuildOptions.Workers); err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				ix.forest = buildForest(ix, g, benchBuildOptions.Workers)
				decode, check, sort = decode+t1.Sub(t0), check+t2.Sub(t1), sort+time.Since(t2)
			}
			reportMs(b, decode, "decode-ms/op")
			reportMs(b, check, "check-ms/op")
			reportMs(b, sort, "sort-ms/op")
		})
	}
}
