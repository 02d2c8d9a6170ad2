package engine

import (
	"context"
	"time"

	"oipsr/graph"
	"oipsr/internal/psum"
	"oipsr/internal/simmat"
)

func init() { Register(psumEngine{base{PsumSR}}) }

// psumEngine is Lizorkin et al.'s partial sums memoization baseline.
type psumEngine struct{ base }

func (psumEngine) Caps() Caps { return Caps{AllPairs: true} }

func (psumEngine) Compute(_ context.Context, g *graph.Graph, p Params) (simmat.Source, *Stats, error) {
	c, k, err := geometricSchedule(p)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	m, st, err := psum.Compute(g, psum.Options{C: c, K: k, Threshold: p.Threshold, Workers: p.Workers})
	if err != nil {
		return nil, nil, err
	}
	return m, &Stats{
		Algorithm:   PsumSR,
		Iterations:  st.Iterations,
		ComputeTime: time.Since(t0),
		InnerAdds:   st.InnerAdds,
		OuterAdds:   st.OuterAdds,
		AuxBytes:    st.AuxBytes,
		StateBytes:  simmat.StateBytes(g.NumVertices(), 2),
		SievedPairs: st.SievedPairs,
	}, nil
}
