package simrank

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gio"
	"oipsr/internal/matrixform"
	"oipsr/internal/simmat"
)

// The golden conformance corpus: small, hand-written graphs covering the
// structural edge cases (self-loops, disconnected components + isolated
// vertices, star/hub degeneracy, DAG, cycles, heavy in-neighbor overlap),
// each with committed ground-truth scores.
//
//   - <name>.golden holds the exact conventional-model scores (the naive
//     Jeh-Widom oracle at confC, confK); every conventional engine — naive,
//     psum-sr and oip-sr — must match within 1e-12 on the dense backend,
//     and so must every engine whose Caps().Tiled is set on every tiled
//     backend (several block sizes, and a spilling memory budget). Monte
//     Carlo matches within statistical tolerance.
//   - <name>.dsr.golden holds the differential-model scores (pinned from
//     the serial dense OIP-DSR engine, cross-checked here against the
//     independent matrixform.ExponentialSum oracle); OIP-DSR on every
//     backend must match within 1e-12.
//   - mtx-SR approximates the matrix-form model, so it is checked against
//     matrixform.GeometricSum at full rank instead of the golden file.
//
// Regenerate the goldens with:
//
//	go test ./simrank -run TestConformance -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the conformance golden files")

const (
	confC = 0.6
	confK = 11
	// confTol is the corpus tolerance: the goldens are exact engine output
	// and all conventional engines share the canonical-symmetry rule, so
	// agreement is rounding-level; 1e-12 leaves room for cross-platform
	// FMA contraction differences.
	confTol = 1e-12
)

var conformanceFixtures = []string{
	"selfloop", "disconnected", "star", "dag", "cycle", "overlap",
}

// conformanceBackends enumerates the storage backends the engines are
// exercised against: dense, tiled at block sizes bracketing the fixture
// dimensions (1 = extreme, 5 = ragged tiles, 64 >= n = one tile), and a
// tiled run under a memory budget small enough to force spills. The tiled
// ones run only for the engines whose table entry is tiled.
type confBackend struct {
	name   string
	block  int
	budget int64
	spill  bool
}

var conformanceBackends = []confBackend{
	{name: "dense"},
	{name: "tiled/B=1", block: 1},
	{name: "tiled/B=5", block: 5},
	{name: "tiled/B=64", block: 64},
	{name: "tiled/B=4+spill", block: 4, budget: 6 * 4 * 4 * 8, spill: true},
}

func loadConformanceGraph(t *testing.T, name string) *graph.Graph {
	t.Helper()
	path := filepath.Join("testdata", "conformance", name+".edges")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// The first line may carry an "# n=N" directive forcing trailing
	// isolated vertices the edge list alone cannot express.
	br := bufio.NewReader(f)
	head, _ := br.Peek(64)
	n := 0
	if line, _, ok := strings.Cut(string(head), "\n"); ok {
		fmt.Sscanf(line, "# n=%d", &n)
	}
	g, err := gio.ReadEdgeListN(br, n)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return g
}

func goldenPath(name, suffix string) string {
	return filepath.Join("testdata", "conformance", name+suffix)
}

// writeGolden stores the canonical upper triangle, full float64 precision.
func writeGolden(t *testing.T, path string, m *simmat.Matrix) {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %d vertices; lines: i j score (canonical upper triangle, i <= j)\n", m.N())
	for i := 0; i < m.N(); i++ {
		for j := i; j < m.N(); j++ {
			fmt.Fprintf(&sb, "%d %d %.17g\n", i, j, m.At(i, j))
		}
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T, path string, n int) *simmat.Matrix {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to regenerate)", err)
	}
	defer f.Close()
	m := simmat.New(n)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var i, j int
		var v float64
		if _, err := fmt.Sscanf(line, "%d %d %g", &i, &j, &v); err != nil {
			t.Fatalf("%s: bad line %q: %v", path, line, err)
		}
		m.Set(i, j, v)
		m.Set(j, i, v)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return m
}

// maxDiffGolden compares a Scores result against a golden matrix.
func maxDiffGolden(t *testing.T, s *Scores, golden *simmat.Matrix) float64 {
	t.Helper()
	d := 0.0
	for i := 0; i < golden.N(); i++ {
		row := s.Row(i)
		for j, v := range row {
			if x := math.Abs(v - golden.At(i, j)); x > d {
				d = x
			}
		}
	}
	return d
}

func backendOptions(b confBackend, t *testing.T) (blockSize int, budget int64, dir string) {
	if b.block == 0 {
		return 0, 0, ""
	}
	if b.spill {
		return b.block, b.budget, t.TempDir()
	}
	return b.block, 0, ""
}

// TestConformanceCorpus pins every engine, over every backend it supports,
// to the committed ground truth on every fixture.
func TestConformanceCorpus(t *testing.T) {
	type engineCase struct {
		name   string
		opts   Options
		golden string
		tol    float64
	}
	cases := []engineCase{
		{name: "naive", opts: Options{Algorithm: Naive, C: confC, K: confK}, golden: ".golden", tol: confTol},
		{name: "psum-sr", opts: Options{Algorithm: PsumSR, C: confC, K: confK}, golden: ".golden", tol: confTol},
		{name: "oip-sr", opts: Options{Algorithm: OIPSR, C: confC, K: confK}, golden: ".golden", tol: confTol},
		{name: "oip-sr/inner-only", opts: Options{Algorithm: OIPSR, C: confC, K: confK, DisableOuterSharing: true}, golden: ".golden", tol: confTol},
		{name: "oip-dsr", opts: Options{Algorithm: OIPDSR, C: confC, K: confK}, golden: ".dsr.golden", tol: confTol},
	}

	for _, name := range conformanceFixtures {
		name := name
		t.Run(name, func(t *testing.T) {
			g := loadConformanceGraph(t, name)
			n := g.NumVertices()

			if *updateGolden {
				conv, _, err := Compute(g, Options{Algorithm: Naive, C: confC, K: confK, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				gm := simmat.New(n)
				for i := 0; i < n; i++ {
					copy(gm.Row(i), conv.Row(i))
				}
				writeGolden(t, goldenPath(name, ".golden"), gm)
				dsr, _, err := Compute(g, Options{Algorithm: OIPDSR, C: confC, K: confK, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				dm := simmat.New(n)
				for i := 0; i < n; i++ {
					copy(dm.Row(i), dsr.Row(i))
				}
				writeGolden(t, goldenPath(name, ".dsr.golden"), dm)
			}

			conv := readGolden(t, goldenPath(name, ".golden"), n)
			diff := readGolden(t, goldenPath(name, ".dsr.golden"), n)

			// The differential golden must itself agree with the
			// independent matrix-form oracle (exponential series, free
			// diagonal): engine output is not self-certifying.
			expo, err := matrixform.ExponentialSum(g, confC, confK)
			if err != nil {
				t.Fatal(err)
			}
			if d := simmat.MaxDiff(diff, expo); d > 1e-10 {
				t.Errorf("dsr golden vs matrixform oracle: %g > 1e-10", d)
			}
			// And the conventional golden against one matrix-form sweep
			// sanity invariant: symmetric, in [0, 1], unit diagonal.
			convT := conv.Copy()
			convT.Transpose(1)
			if d := simmat.MaxDiff(conv, convT); d != 0 {
				t.Errorf("conventional golden not symmetric: asymmetry %g", d)
			}
			if lo, hi := slices.Min(conv.Data()), slices.Max(conv.Data()); lo < 0 || hi > 1 {
				t.Errorf("conventional golden out of range: entries in [%g,%g]", lo, hi)
			}

			for _, ec := range cases {
				golden := conv
				if ec.golden == ".dsr.golden" {
					golden = diff
				}
				for _, be := range conformanceBackends {
					if be.block > 0 && !engines[ec.opts.Algorithm].tiled {
						continue
					}
					for _, workers := range []int{1, 3} {
						opts := ec.opts
						opts.Workers = workers
						opts.BlockSize, opts.MaxMemoryBytes, opts.SpillDir = backendOptions(be, t)
						s, _, err := Compute(g, opts)
						if err != nil {
							t.Fatalf("%s/%s/w=%d: %v", ec.name, be.name, workers, err)
						}
						if d := maxDiffGolden(t, s, golden); d > ec.tol {
							t.Errorf("%s/%s/w=%d: max diff vs golden %g > %g", ec.name, be.name, workers, d, ec.tol)
						}
						s.Close()
					}
				}
			}

			// Monte Carlo: statistical agreement with the conventional
			// golden (the estimator carries coalescence bias, so the gate
			// is mean absolute error, not machine precision).
			mc, _, err := Compute(g, Options{Algorithm: MonteCarlo, C: confC, K: confK, Walks: 3000, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			var cnt int
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i == j {
						continue
					}
					sum += math.Abs(mc.Score(i, j) - conv.At(i, j))
					cnt++
				}
			}
			if mae := sum / float64(cnt); mae > 0.05 {
				t.Errorf("monte-carlo mean absolute error %g > 0.05", mae)
			}

			// mtx-SR approximates the matrix-form geometric series; at full
			// rank it must track that model's converged scores.
			mtxRef, err := matrixform.GeometricSum(g, confC, 120)
			if err != nil {
				t.Fatal(err)
			}
			mtx, _, err := Compute(g, Options{Algorithm: MtxSR, C: confC, Rank: n, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			d := 0.0
			for i := 0; i < n; i++ {
				row := mtx.Row(i)
				for j, v := range row {
					if x := math.Abs(v - mtxRef.At(i, j)); x > d {
						d = x
					}
				}
			}
			if d > 1e-4 {
				t.Errorf("mtx-sr (full rank) vs matrix-form model: %g > 1e-4", d)
			}
		})
	}
}
