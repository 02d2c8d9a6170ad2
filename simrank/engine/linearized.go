package engine

import (
	"context"
	"time"

	"oipsr/graph"
	"oipsr/internal/linsr"
	"oipsr/internal/simmat"
)

func init() { Register(linearizedEngine{base{Linearized}}) }

// linearizedEngine is Maehara et al.'s linearization (internal/linsr): a
// one-off diagonal-correction solve, then exact single-source rows with no
// n² state. All-pairs output is each row's single-source answer, so any
// row of Compute is bit-identical to the same SingleSource call.
type linearizedEngine struct{ base }

func (linearizedEngine) Caps() Caps {
	return Caps{AllPairs: true, SingleSource: true, SinglePair: true}
}

// solverParams maps the normalized Params onto linsr.Options: Eps is the
// solve tolerance, K (when set) pins the series horizon like the geometric
// engines' iteration count.
func solverParams(p Params) linsr.Options {
	return linsr.Options{C: p.C, Tol: p.Eps, T: p.K, Workers: p.Workers}
}

func (linearizedEngine) Compute(ctx context.Context, g *graph.Graph, p Params) (simmat.Source, *Stats, error) {
	sol, err := linsr.New(ctx, g, solverParams(p))
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	n := g.NumVertices()
	m, err := fillRows(n, p.Workers, func() rowFunc {
		sc := sol.NewScratch()
		return func(q int, dst []float64) error {
			_, err := sol.SingleSourceScratch(ctx, q, dst, sc)
			return err
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return m, linearizedStats(sol, n, time.Since(t0), simmat.StateBytes(n, 1)), nil
}

func (linearizedEngine) SingleSource(ctx context.Context, g *graph.Graph, p Params, q int) ([]float64, *Stats, error) {
	sol, err := linsr.New(ctx, g, solverParams(p))
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	row, err := sol.SingleSource(ctx, q, nil)
	if err != nil {
		return nil, nil, err
	}
	return row, linearizedStats(sol, g.NumVertices(), time.Since(t0), 0), nil
}

func linearizedStats(sol *linsr.Solver, n int, compute time.Duration, stateBytes int64) *Stats {
	st := sol.Stats()
	return &Stats{
		Algorithm:   Linearized,
		Iterations:  st.SolveIters,
		PlanTime:    st.BuildTime,
		ComputeTime: compute,
		Residual:    st.Residual,
		AuxBytes:    st.AuxBytes,
		StateBytes:  stateBytes,
	}
}
