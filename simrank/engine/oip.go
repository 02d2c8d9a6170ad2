package engine

import (
	"context"

	"oipsr/graph"
	"oipsr/internal/core"
	"oipsr/internal/simmat"
)

func init() { Register(oipEngine{base{OIPSR}}) }

// oipEngine is the paper's OIP-SR: partial-sums sharing over the
// DMST-Reduce plan.
type oipEngine struct{ base }

func (oipEngine) Caps() Caps { return Caps{AllPairs: true, Tiled: true} }

func (oipEngine) Compute(_ context.Context, g *graph.Graph, p Params) (simmat.Source, *Stats, error) {
	m, st, err := core.Compute(g, core.Options{
		C:            p.C,
		K:            p.K,
		Eps:          p.Eps,
		StopDiff:     p.StopDiff,
		DisableOuter: p.DisableOuterSharing,
		Workers:      p.Workers,
		Tile:         p.Tile,
	})
	if err != nil {
		return nil, nil, err
	}
	return m, oipStats(OIPSR, st), nil
}

// oipStats maps the Stats of an OIP engine, OIP-SR or OIP-DSR.
func oipStats(alg Algorithm, st *core.Stats) *Stats {
	return &Stats{
		Algorithm:        alg,
		Iterations:       st.Iterations,
		PlanTime:         st.PlanTime,
		ComputeTime:      st.SweepTime,
		InnerAdds:        st.InnerAdds,
		OuterAdds:        st.OuterAdds,
		AuxBytes:         st.AuxBytes,
		StateBytes:       st.StateBytes,
		ShareRatio:       st.ShareRatio,
		AvgDiff:          st.AvgDiff,
		NumSets:          st.NumSets,
		FinalDiff:        st.FinalDiff,
		TilePeakBytes:    st.Tile.HighWaterBytes,
		TileSpills:       st.Tile.Spills,
		TileLoads:        st.Tile.Loads,
		TileSpilledBytes: st.Tile.SpilledBytes,
	}
}
