package engine

import (
	"context"

	"oipsr/graph"
	"oipsr/internal/prank"
	"oipsr/internal/simmat"
)

func init() { Register(prankEngine{base{PRank}}) }

// prankEngine is Penetrating Rank: SimRank generalized to in- and
// out-links with OIP sharing in both directions.
type prankEngine struct{ base }

func (prankEngine) Caps() Caps { return Caps{AllPairs: true} }

func (prankEngine) Compute(_ context.Context, g *graph.Graph, p Params) (simmat.Source, *Stats, error) {
	m, st, err := prank.Compute(g, prank.Options{
		CIn:     p.C,
		COut:    p.COut,
		Lambda:  p.Lambda,
		K:       p.K,
		Eps:     p.Eps,
		Workers: p.Workers,
	})
	if err != nil {
		return nil, nil, err
	}
	return m, &Stats{
		Algorithm:   PRank,
		Iterations:  st.Iterations,
		PlanTime:    st.PlanTime,
		ComputeTime: st.SweepTime,
		InnerAdds:   st.InnerAdds,
		OuterAdds:   st.OuterAdds,
		AuxBytes:    st.AuxBytes,
		StateBytes:  simmat.StateBytes(g.NumVertices(), 4),
		ShareRatio:  (st.InShareRatio + st.OutShareRatio) / 2,
	}, nil
}
