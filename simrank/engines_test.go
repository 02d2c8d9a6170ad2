package simrank

import (
	"context"
	"fmt"
	"math"
	"testing"

	"oipsr/graph/gen"
)

// TestEveryEngineRoundTripsThroughCompute is the engine table's gate:
// every engine must dispatch through Compute and produce a sane score
// matrix (unit diagonal up to its model/tolerance, scores in [0,1] up to
// rounding).
func TestEveryEngineRoundTripsThroughCompute(t *testing.T) {
	g := gen.WebGraph(40, 5, 3)
	n := g.NumVertices()
	names := Algorithms()
	if len(names) != 7 {
		t.Fatalf("expected 7 engines, got %v", names)
	}
	for i, alg := range names {
		if i > 0 && !(names[i-1] < alg) {
			t.Errorf("Algorithms not sorted: %q before %q", names[i-1], alg)
		}
	}
	for _, alg := range names {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			opt := Options{Algorithm: alg, C: 0.6, Workers: 2}
			switch alg {
			case MtxSR:
				// Full rank recovers the matrix-form model exactly; lower
				// ranks carry uncontrolled truncation error on digraphs.
				opt.Rank = n
			case MonteCarlo:
				opt.Walks = 200
				opt.Seed = 5
			}
			s, st, err := Compute(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if st.Algorithm != alg {
				t.Errorf("Stats.Algorithm = %q, want %q", st.Algorithm, alg)
			}
			// The free-diagonal models (oip-dsr's differential exponential
			// form, mtx-sr's matrix form) do not pin s(a,a) = 1; every
			// other engine must. Everything must be a similarity score,
			// and a vertex is always positively similar to itself.
			pinnedDiag := alg != MtxSR && alg != OIPDSR
			for i := 0; i < n; i++ {
				row := s.Row(i)
				if pinnedDiag && math.Abs(row[i]-1) > 1e-6 {
					t.Fatalf("s(%d,%d) = %g, want ~1", i, i, row[i])
				}
				if row[i] <= 0 {
					t.Fatalf("s(%d,%d) = %g, want > 0", i, i, row[i])
				}
				for j, v := range row {
					if v < -1e-9 || v > 1+1e-9 {
						t.Fatalf("s(%d,%d) = %g outside [0,1]", i, j, v)
					}
				}
			}
			s.Close()
		})
	}
}

// TestValidDerivesFromRegistry: Algorithm.Valid is membership in the
// engine table, nothing else.
func TestValidDerivesFromRegistry(t *testing.T) {
	for _, alg := range Algorithms() {
		if !alg.Valid() {
			t.Errorf("listed %q reports Valid() == false", alg)
		}
	}
	if Algorithm("no-such-engine").Valid() {
		t.Error(`Valid("no-such-engine") == true`)
	}
	if Algorithm("").Valid() {
		t.Error(`Valid("") == true`)
	}
}

// TestUnknownAlgorithmError pins the public error texts of an unknown
// engine and of the tiled backend on an engine without it.
func TestUnknownAlgorithmError(t *testing.T) {
	g := gen.WebGraph(10, 3, 1)
	_, _, err := Compute(g, Options{Algorithm: "bogus"})
	if err == nil || err.Error() != `simrank: unknown algorithm "bogus"` {
		t.Fatalf("err = %v", err)
	}
	_, _, err = Compute(g, Options{Algorithm: MtxSR, BlockSize: 4})
	if err == nil || err.Error() != `simrank: the tiled backend (BlockSize > 0) does not support algorithm "mtx-sr"` {
		t.Fatalf("tiled mtx-sr err = %v", err)
	}
}

// TestCancelledLinearizedCompute: the linearized engine must surface
// cancellation through ComputeContext.
func TestCancelledLinearizedCompute(t *testing.T) {
	g := gen.WebGraph(60, 5, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := ComputeContext(ctx, g, Options{Algorithm: Linearized})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// BenchmarkEngines times, through Compute, the all-pairs engines no
// contract workload runs, on sweep-web's seed-1 graph (web, n = 1500,
// d = 11) at one worker and at the default pool (workers=0, every CPU).
// aux-B is the engine's Stats.AuxBytes.
func BenchmarkEngines(b *testing.B) {
	g := gen.WebGraph(1500, 11, 1)
	for _, alg := range []Algorithm{MonteCarlo} {
		for _, workers := range []int{1, 0} {
			b.Run(fmt.Sprintf("%s/workers=%d", alg, workers), func(b *testing.B) {
				var aux int64
				for i := 0; i < b.N; i++ {
					_, st, err := Compute(g, Options{Algorithm: alg, Seed: 1, Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					aux = st.AuxBytes
				}
				b.ReportMetric(float64(aux), "aux-B")
			})
		}
	}
}
