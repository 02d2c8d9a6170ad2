package engine

import (
	"context"
	"time"

	"oipsr/graph"
	"oipsr/internal/simmat"
	"oipsr/internal/walkindex"
)

func init() { Register(monteCarloEngine{base{MonteCarlo}}) }

// monteCarloEngine is the Fogaras-Racz first-meeting-time estimator,
// answered by the serving walk index: one full-range index build, then
// every row is that index's single-source answer. A row is therefore
// bit-identical to query.Index.SingleSource under the same options, and the
// matrix is exactly symmetric. Walks and K are capped at 65535 (the walk
// hash's 16-bit fields); ctx is polled once per fingerprint of every row.
type monteCarloEngine struct{ base }

func (monteCarloEngine) Caps() Caps { return Caps{AllPairs: true} }

func (monteCarloEngine) Compute(ctx context.Context, g *graph.Graph, p Params) (simmat.Source, *Stats, error) {
	t0 := time.Now()
	n := g.NumVertices()
	ix, err := walkindex.Build(g, walkindex.Options{
		C:       p.C,
		K:       p.K,
		Eps:     p.Eps,
		Walks:   p.Walks,
		Seed:    p.Seed,
		Workers: p.Workers,
	}, 0, n)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	m, err := fillRows(n, p.Workers, func() rowFunc {
		return func(q int, dst []float64) error {
			_, err := ix.SingleSource(ctx, q, dst)
			return err
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return m, &Stats{
		Algorithm:   MonteCarlo,
		Iterations:  ix.Walks(),
		PlanTime:    t1.Sub(t0),
		ComputeTime: time.Since(t1),
		AuxBytes:    ix.Bytes() + ix.ForestBytes(),
		StateBytes:  simmat.StateBytes(n, 1),
	}, nil
}
