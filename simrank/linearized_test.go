package simrank

import (
	"context"
	"math"
	"testing"

	"oipsr/internal/linsr"
)

// TestConformanceLinearized runs the linearized engine over the golden
// corpus fixtures. The committed goldens are truncated at confK (tail
// ~C^12), far above the 1e-8 gate, and the linearization approximates the
// converged conventional fixed point — so the reference here is a fresh
// deeply-converged naive run (K = 100, tail ~1e-22) on each fixture, and
// the 1e-8 disagreement budget is linsr's alone.
func TestConformanceLinearized(t *testing.T) {
	const refK = 100
	for _, name := range conformanceFixtures {
		name := name
		t.Run(name, func(t *testing.T) {
			g := loadConformanceGraph(t, name)
			ref, _, err := Compute(g, Options{Algorithm: Naive, C: confC, K: refK, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				lin, st, err := Compute(g, Options{Algorithm: Linearized, C: confC, Eps: 1e-10, Workers: workers})
				if err != nil {
					t.Fatalf("w=%d: %v", workers, err)
				}
				worst := 0.0
				for i := 0; i < g.NumVertices(); i++ {
					row := lin.Row(i)
					refRow := ref.Row(i)
					for j, v := range row {
						if d := math.Abs(v - refRow[j]); d > worst {
							worst = d
						}
					}
				}
				if worst > 1e-8 {
					t.Errorf("w=%d: max abs error vs converged naive %g > 1e-8 (residual %g after %d sweeps)",
						workers, worst, st.Residual, st.Iterations)
				}
			}
		})
	}
}

// TestLinearizedSingleSourceMatchesAllPairs pins the row bit-consistency
// contract: the all-pairs output is built row-by-row from the same
// single-source fold, so the two paths must agree bit for bit.
func TestLinearizedSingleSourceMatchesAllPairs(t *testing.T) {
	for _, name := range conformanceFixtures {
		name := name
		t.Run(name, func(t *testing.T) {
			g := loadConformanceGraph(t, name)
			opt := Options{Algorithm: Linearized, C: confC, Eps: 1e-10}
			all, _, err := Compute(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := linsr.New(context.Background(), g, linsr.Options{C: opt.C, Tol: opt.Eps})
			if err != nil {
				t.Fatal(err)
			}
			for q := 0; q < g.NumVertices(); q++ {
				row, err := sol.SingleSource(context.Background(), q, nil)
				if err != nil {
					t.Fatal(err)
				}
				allRow := all.Row(q)
				for j, v := range row {
					if v != allRow[j] {
						t.Fatalf("q=%d j=%d: single-source %x != all-pairs %x", q, j, v, allRow[j])
					}
				}
			}
		})
	}
}
