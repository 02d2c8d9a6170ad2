package engine

import (
	"context"
	"time"

	"oipsr/graph"
	"oipsr/internal/naive"
	"oipsr/internal/simmat"
)

func init() { Register(naiveEngine{base{Naive}}) }

// naiveEngine is the original Jeh-Widom iteration, the conformance oracle.
type naiveEngine struct{ base }

func (naiveEngine) Caps() Caps { return Caps{AllPairs: true} }

func (naiveEngine) Compute(_ context.Context, g *graph.Graph, p Params) (simmat.Source, *Stats, error) {
	c, k, err := geometricSchedule(p)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	m, err := naive.ComputeWorkers(g, c, k, p.Workers)
	if err != nil {
		return nil, nil, err
	}
	return m, &Stats{
		Algorithm:   Naive,
		Iterations:  k,
		ComputeTime: time.Since(t0),
		StateBytes:  simmat.StateBytes(g.NumVertices(), 2),
	}, nil
}
