package simrank_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/simrank"
)

// recordParent rewrites testdata/parent/engines.txt instead of comparing
// against it. The file holds the results of commit 3690f7a, the last one
// that dispatched Compute through the simrank/engine registry; it is only
// ever recorded by checking that commit out, dropping this file into
// simrank/ and running TestParentEngineGoldens with -record-parent
// (testdata/parent/README.md). The test uses nothing but Compute, Options,
// Scores.Row and the Stats fields, so it compiles on both sides.
var recordParent = flag.Bool("record-parent", false, "rewrite testdata/parent/engines.txt (run only at the parent commit; see testdata/parent/README.md)")

// engineGoldenCase is one Compute request: a name for the record, and the
// options without Workers, BlockSize, MaxMemoryBytes and SpillDir, which
// the backend sets.
type engineGoldenCase struct {
	name string
	opt  simrank.Options
}

// engineGoldenCases run every engine at a fixed horizon and at its
// defaults, and each engine-specific option at a non-zero value, so that
// every Options field an engine reads reaches it.
var engineGoldenCases = []engineGoldenCase{
	{"oip-sr-k5", simrank.Options{Algorithm: simrank.OIPSR, K: 5}},
	{"oip-sr-default", simrank.Options{Algorithm: simrank.OIPSR}},
	{"oip-sr-stopdiff", simrank.Options{Algorithm: simrank.OIPSR, C: 0.8, K: 40, StopDiff: 1e-3}},
	{"oip-sr-no-outer", simrank.Options{Algorithm: simrank.OIPSR, K: 5, DisableOuterSharing: true}},
	{"oip-dsr-k5", simrank.Options{Algorithm: simrank.OIPDSR, K: 5}},
	{"oip-dsr-default", simrank.Options{Algorithm: simrank.OIPDSR, C: 0.8, Eps: 1e-4}},
	{"psum-sr-k5", simrank.Options{Algorithm: simrank.PsumSR, K: 5}},
	{"psum-sr-sieve", simrank.Options{Algorithm: simrank.PsumSR, Eps: 1e-4, Threshold: 0.02}},
	{"naive-k5", simrank.Options{Algorithm: simrank.Naive, K: 5}},
	{"naive-default", simrank.Options{Algorithm: simrank.Naive, C: 0.7}},
	{"mtx-sr-default", simrank.Options{Algorithm: simrank.MtxSR}},
	{"mtx-sr-rank8", simrank.Options{Algorithm: simrank.MtxSR, C: 0.8, Rank: 8, Seed: 7}},
	{"monte-carlo-k5", simrank.Options{Algorithm: simrank.MonteCarlo, K: 5, Walks: 40, Seed: 11}},
	{"monte-carlo-default", simrank.Options{Algorithm: simrank.MonteCarlo}},
	{"linearized-k5", simrank.Options{Algorithm: simrank.Linearized, K: 5}},
	{"linearized-eps", simrank.Options{Algorithm: simrank.Linearized, C: 0.8, Eps: 1e-6}},
}

// engineGoldenBackend is one backend: the pool size, and block > 0 (with
// an optional cap) for the tiled backend, which only OIP-SR and OIP-DSR
// take.
type engineGoldenBackend struct {
	name     string
	workers  int
	block    int
	maxBytes int64
}

var engineGoldenBackends = []engineGoldenBackend{
	{"dense-w1", 1, 0, 0},
	{"dense-w2", 2, 0, 0},
	{"tiled-b8-w1", 1, 8, 0},
	{"tiled-b8-w2", 2, 8, 0},
	// One worker, so that the spill and load counts of the capped run are
	// deterministic: with several, tile faults race.
	{"tiled-b8-cap-w1", 1, 8, 8 * 8 * 8 * 6},
}

// engineGoldenGraphs are two small graphs: a web graph with real sharing
// and a citation graph (a DAG, many vertices with an empty in-set).
func engineGoldenGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"web60", gen.WebGraph(60, 5, 3)},
		{"citation50", gen.CitationGraph(50, 4, 7)},
	}
}

// engineGoldenLine renders one run: the SHA-256 of the little-endian
// math.Float64bits of every score in row-major order, then every Stats
// field that is not a timing, floats as their bits.
func engineGoldenLine(s *simrank.Scores, st *simrank.Stats) string {
	h := sha256.New()
	n := s.N()
	buf := make([]byte, 8*n)
	for i := 0; i < n; i++ {
		for j, v := range s.Row(i) {
			b := math.Float64bits(v)
			for k := 0; k < 8; k++ {
				buf[8*j+k] = byte(b >> (8 * k))
			}
		}
		h.Write(buf)
	}
	bits := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
	return fmt.Sprintf("%s alg=%s iterations=%d inner=%d outer=%d aux=%d state=%d share=%s avgdiff=%s sets=%d finaldiff=%s rank=%d residual=%s sieved=%d tilepeak=%d spills=%d loads=%d spilled=%d",
		hex.EncodeToString(h.Sum(nil)), st.Algorithm, st.Iterations, st.InnerAdds, st.OuterAdds,
		st.AuxBytes, st.StateBytes, bits(st.ShareRatio), bits(st.AvgDiff), st.NumSets,
		bits(st.FinalDiff), st.Rank, bits(st.Residual), st.SievedPairs,
		st.TilePeakBytes, st.TileSpills, st.TileLoads, st.TileSpilledBytes)
}

// withRankBytes returns a recorded line as today's code must reproduce it.
// Since the walk index keeps its coalescence order's inverse — one int32
// per stored walk — monte-carlo's AuxBytes, which counts that order, is the
// recorded figure plus 4·R·n (R its iterations, n the golden graph's
// vertex count). Every other field, and every other engine's line, is
// compared as recorded.
func withRankBytes(t *testing.T, line string) string {
	t.Helper()
	if !strings.Contains(line, " alg=monte-carlo ") {
		return line
	}
	n := map[string]int64{}
	for _, gc := range engineGoldenGraphs() {
		n[gc.name] = int64(gc.g.NumVertices())
	}
	var r, aux int64
	fields := strings.Fields(line)
	for _, f := range fields {
		fmt.Sscanf(f, "iterations=%d", &r)
		fmt.Sscanf(f, "aux=%d", &aux)
	}
	if n[fields[0]] == 0 || r == 0 || aux == 0 {
		t.Fatalf("cannot read graph, iterations and aux from %q", line)
	}
	return strings.Replace(line, fmt.Sprintf(" aux=%d ", aux), fmt.Sprintf(" aux=%d ", aux+4*r*n[fields[0]]), 1)
}

// TestParentEngineGoldens: every engine, on both golden graphs, dense at
// one and two workers — and OIP-SR and OIP-DSR also on the tiled backend —
// reproduces the scores and the non-timing Stats that the registry
// dispatch of commit 3690f7a recorded, bit for bit — monte-carlo's
// AuxBytes as withRankBytes adjusts it.
func TestParentEngineGoldens(t *testing.T) {
	var out strings.Builder
	for _, gc := range engineGoldenGraphs() {
		for _, c := range engineGoldenCases {
			tiled := c.opt.Algorithm == simrank.OIPSR || c.opt.Algorithm == simrank.OIPDSR
			for _, be := range engineGoldenBackends {
				if be.block > 0 && !tiled {
					continue
				}
				opt := c.opt
				opt.Workers, opt.BlockSize, opt.MaxMemoryBytes = be.workers, be.block, be.maxBytes
				if be.maxBytes > 0 {
					opt.SpillDir = t.TempDir()
				}
				s, st, err := simrank.Compute(gc.g, opt)
				if err != nil {
					t.Fatalf("%s %s %s: %v", gc.name, c.name, be.name, err)
				}
				fmt.Fprintf(&out, "%s %s %s %s\n", gc.name, c.name, be.name, engineGoldenLine(s, st))
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	path := filepath.Join("testdata", "parent", "engines.txt")
	if *recordParent {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d golden lines, want %d", len(gl), len(wl))
	}
	for i := range wl {
		wl[i] = withRankBytes(t, wl[i])
		if gl[i] != wl[i] {
			t.Errorf("golden mismatch:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}
