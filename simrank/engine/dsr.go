package engine

import (
	"context"

	"oipsr/graph"
	"oipsr/internal/dsr"
	"oipsr/internal/simmat"
)

func init() { Register(dsrEngine{base{OIPDSR}}) }

// dsrEngine is OIP-DSR: the differential (exponential-convergence) SimRank
// iteration with OIP sharing.
type dsrEngine struct{ base }

func (dsrEngine) Caps() Caps { return Caps{AllPairs: true, Tiled: true} }

func (dsrEngine) Compute(_ context.Context, g *graph.Graph, p Params) (simmat.Source, *Stats, error) {
	m, st, err := dsr.Compute(g, dsr.Options{
		C:       p.C,
		K:       p.K,
		Eps:     p.Eps,
		Workers: p.Workers,
	})
	if err != nil {
		return nil, nil, err
	}
	return m, &Stats{
		Algorithm:   OIPDSR,
		Iterations:  st.Iterations,
		PlanTime:    st.PlanTime,
		ComputeTime: st.SweepTime,
		InnerAdds:   st.InnerAdds,
		OuterAdds:   st.OuterAdds,
		AuxBytes:    st.AuxBytes,
		StateBytes:  st.StateBytes,
		ShareRatio:  st.ShareRatio,
		AvgDiff:     st.AvgDiff,
		NumSets:     st.NumSets,
	}, nil
}

func (dsrEngine) ComputeTiled(_ context.Context, g *graph.Graph, p Params) (simmat.Source, *Stats, error) {
	m, st, err := dsr.ComputeTiled(g, dsr.Options{
		C:       p.C,
		K:       p.K,
		Eps:     p.Eps,
		Workers: p.Workers,
		Tile:    p.Tile,
	})
	if err != nil {
		return nil, nil, err
	}
	return m, &Stats{
		Algorithm:        OIPDSR,
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
		TilePeakBytes:    st.Tile.HighWaterBytes,
		TileSpills:       st.Tile.Spills,
		TileLoads:        st.Tile.Loads,
		TileSpilledBytes: st.Tile.SpilledBytes,
	}, nil
}
