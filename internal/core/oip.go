package core

import (
	"fmt"
	"time"

	"oipsr/graph"
	"oipsr/internal/numeric"
	"oipsr/internal/partition"
	"oipsr/internal/simmat"
)

// Options configure an OIP-SR computation.
type Options struct {
	// C is the damping factor in (0,1). The paper's default is 0.6.
	C float64

	// K is the number of iterations. If zero, it is derived from Eps via
	// the Lizorkin bound (smallest K with C^(K+1) <= Eps).
	K int

	// Eps is the desired accuracy used when K == 0. Defaults to 1e-3 (the
	// paper's default) when both K and Eps are zero.
	Eps float64

	// StopDiff, when positive, stops early once the max-norm difference
	// between successive iterates drops to or below it. This is the
	// "observed iterations" stopping rule of Exp-3. Compute then holds a
	// third m x m block, the copy of each iterate the sweep overwrites.
	StopDiff float64

	// DisableOuter ablates outer partial-sums sharing (Section III-B),
	// leaving only inner sharing over the MST.
	DisableOuter bool

	// Workers sets the sweep worker-pool size: 1 means serial, anything
	// below 1 means runtime.GOMAXPROCS(0). Scores and operation counts are
	// bit-identical for every value (see the package comment).
	Workers int

	// Tile selects the tiled score-matrix backend when Tile.BlockSize > 0
	// (ComputeTiled only; Compute ignores it).
	Tile simmat.TileOptions
}

func (o *Options) normalize() error {
	if o.C == 0 {
		o.C = 0.6
	}
	if !(o.C > 0 && o.C < 1) {
		return fmt.Errorf("core: damping factor %v outside (0,1)", o.C)
	}
	if o.K < 0 {
		return fmt.Errorf("core: negative iteration count %d", o.K)
	}
	if o.K == 0 {
		if o.Eps == 0 {
			o.Eps = 1e-3
		}
		if !(o.Eps > 0 && o.Eps < 1) {
			return fmt.Errorf("core: accuracy eps %v outside (0,1)", o.Eps)
		}
		o.K = numeric.IterationsConventional(o.C, o.Eps)
	}
	return nil
}

// Stats describes the work a computation performed, split into the two
// phases of Fig. 6b ("Build MST" vs "Share Sums") plus the operation counts
// and sharing metrics that substantiate the d' < d claim of Proposition 5.
type Stats struct {
	Iterations int           // iterations actually executed
	PlanTime   time.Duration // DMST-Reduce (build MST) phase
	SweepTime  time.Duration // share-sums phase (all iterations)

	InnerAdds  int64 // scalar additions on inner partial sums
	OuterAdds  int64 // scalar additions on outer partial sums
	AuxBytes   int64 // auxiliary memory: plan + sweep buffers (the paper's "intermediate memory")
	StateBytes int64 // m^2 state the engine holds (two m x m score blocks, m = vertices with a non-empty in-set; three with StopDiff on the dense backend)

	NumSets          int     // non-empty in-neighbor sets
	PlanAdditions    int     // per-sweep vector ops with sharing (MST weight)
	ScratchAdditions int     // per-sweep vector ops without sharing (psum-SR)
	ShareRatio       float64 // fraction of additions avoided
	AvgDiff          float64 // d_(+): mean symmetric-difference size on shared edges
	FinalDiff        float64 // max-norm difference of the last two iterates (0 if K=0)

	// Tile reports the tile store's accounting (ComputeTiled only).
	Tile simmat.TileMetrics
}

// Compute runs OIP-SR (Algorithm 1) on g and returns s_K plus statistics.
// The scores come as the m x m block over the vertices with a non-empty
// in-set, expanded with diagonal 1 (see the package comment): every cell
// reads bit for bit what the full n x n iteration computes.
func Compute(g *graph.Graph, opt Options) (*simmat.Expanded, *Stats, error) {
	if err := opt.normalize(); err != nil {
		return nil, nil, err
	}
	st := &Stats{}

	t0 := time.Now()
	plan, err := partition.BuildPlan(g, partition.Options{})
	if err != nil {
		return nil, nil, err
	}
	st.PlanTime = time.Since(t0)
	st.NumSets = plan.NumSets
	st.PlanAdditions = plan.Additions
	st.ScratchAdditions = plan.ScratchAdditions
	st.ShareRatio = plan.ShareRatio()
	st.AvgDiff = plan.AvgDiff

	sw := NewParallelSweeper(g, plan, false, opt.DisableOuter, opt.Workers)
	prev := simmat.NewIdentity(sw.Kept())
	next := simmat.New(sw.Kept())
	// Sweep overwrites its input, so the stopping rule compares next with
	// a copy of prev taken before the sweep.
	var last *simmat.Matrix
	if opt.StopDiff > 0 {
		last = simmat.New(sw.Kept())
	}

	t1 := time.Now()
	for iter := 0; iter < opt.K; iter++ {
		if last != nil {
			copy(last.Data(), prev.Data())
		}
		sw.Sweep(prev, next, 1, opt.C, true)
		st.Iterations++
		if last != nil {
			st.FinalDiff = simmat.MaxDiffWorkers(last, next, sw.Workers())
			prev, next = next, prev
			if st.FinalDiff <= opt.StopDiff {
				break
			}
			continue
		}
		prev, next = next, prev
	}
	st.SweepTime = time.Since(t1)
	sws := sw.Stats()
	st.InnerAdds, st.OuterAdds = sws.InnerAdds, sws.OuterAdds
	st.AuxBytes = sw.AuxBytes() + plan.Bytes()
	st.StateBytes = prev.Bytes() + next.Bytes()
	if last != nil {
		st.StateBytes += last.Bytes()
	}
	return simmat.Expand(sw.Slots(), prev, 1), st, nil
}

// ComputeTiled runs OIP-SR against the tiled score-matrix backend selected
// by opt.Tile: both m x m iterates live in one TileStore, so opt.Tile's
// MaxMemoryBytes bounds the whole m^2 state, with evicted tiles spilled to
// disk. Scores are bit-identical to Compute for every block size and worker
// count. The caller owns the result: Close it to release the store and its
// spill files.
func ComputeTiled(g *graph.Graph, opt Options) (*simmat.Expanded, *Stats, error) {
	if err := opt.normalize(); err != nil {
		return nil, nil, err
	}
	store, err := simmat.NewTileStore(opt.Tile)
	if err != nil {
		return nil, nil, err
	}
	st := &Stats{}

	t0 := time.Now()
	plan, err := partition.BuildPlan(g, partition.Options{})
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	st.PlanTime = time.Since(t0)
	st.NumSets = plan.NumSets
	st.PlanAdditions = plan.Additions
	st.ScratchAdditions = plan.ScratchAdditions
	st.ShareRatio = plan.ShareRatio()
	st.AvgDiff = plan.AvgDiff

	sw := NewParallelSweeper(g, plan, false, opt.DisableOuter, opt.Workers)
	prev, err := store.NewIdentity(sw.Kept())
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	next, err := store.NewTiled(sw.Kept())
	if err != nil {
		store.Close()
		return nil, nil, err
	}

	t1 := time.Now()
	for iter := 0; iter < opt.K; iter++ {
		if err := sw.SweepTiled(prev, next, 1, opt.C, true); err != nil {
			store.Close()
			return nil, nil, err
		}
		st.Iterations++
		if opt.StopDiff > 0 {
			st.FinalDiff, err = simmat.MaxDiffTiled(prev, next)
			if err != nil {
				store.Close()
				return nil, nil, err
			}
			prev, next = next, prev
			if st.FinalDiff <= opt.StopDiff {
				break
			}
			continue
		}
		prev, next = next, prev
	}
	st.SweepTime = time.Since(t1)
	sws := sw.Stats()
	st.InnerAdds, st.OuterAdds = sws.InnerAdds, sws.OuterAdds
	st.AuxBytes = sw.AuxBytes() + plan.Bytes()
	st.StateBytes = prev.Bytes() + next.Bytes()
	next.Release()
	st.Tile = store.Metrics()
	return simmat.Expand(sw.Slots(), prev, 1), st, nil
}
