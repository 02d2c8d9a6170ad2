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

	// Tile selects the tiled score-matrix backend when Tile.BlockSize > 0.
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
// OIP-DSR (internal/dsr) reports the same Stats.
type Stats struct {
	Iterations int           // iterations actually executed
	PlanTime   time.Duration // DMST-Reduce (build MST) phase
	SweepTime  time.Duration // share-sums phase (all iterations)

	InnerAdds  int64 // scalar additions on inner partial sums
	OuterAdds  int64 // scalar additions on outer partial sums
	AuxBytes   int64 // auxiliary memory: plan + sweep buffers (the paper's "intermediate memory")
	StateBytes int64 // m^2 state the engine holds, m = vertices with a non-empty in-set: two m x m blocks for OIP-SR (three with StopDiff on the dense backend), three for OIP-DSR

	NumSets          int     // non-empty in-neighbor sets
	PlanAdditions    int     // per-sweep vector ops with sharing (MST weight)
	ScratchAdditions int     // per-sweep vector ops without sharing (psum-SR)
	ShareRatio       float64 // fraction of additions avoided
	AvgDiff          float64 // d_(+): mean symmetric-difference size on shared edges
	FinalDiff        float64 // max-norm difference of the last two iterates (OIP-SR with StopDiff only)

	// Tile reports the tile store's accounting (tiled backend only).
	Tile simmat.TileMetrics
}

// Run is the frame both OIP engines share. It builds the sharing plan —
// DMST-Reduce, or partition.TrivialPlan when trivial — and a sweeper over
// it, hands the sweeper to iterate, records the plan and sweep phases in
// the returned Stats, and expands iterate's m x m result with diag on the
// diagonal of every vertex outside the block. iterate releases whatever it
// allocated when it fails.
func Run(g *graph.Graph, trivial, disableOuter bool, workers int, diag float64,
	iterate func(sw *Sweeper, st *Stats) (simmat.Source, error)) (*simmat.Expanded, *Stats, error) {
	t0 := time.Now()
	var plan *partition.Plan
	if trivial {
		plan = partition.TrivialPlan(g)
	} else {
		var err error
		if plan, err = partition.BuildPlan(g, partition.Options{}); err != nil {
			return nil, nil, err
		}
	}
	st := &Stats{
		PlanTime:         time.Since(t0),
		NumSets:          plan.NumSets,
		PlanAdditions:    plan.Additions,
		ScratchAdditions: plan.ScratchAdditions,
		ShareRatio:       plan.ShareRatio(),
		AvgDiff:          plan.AvgDiff,
	}

	sw := NewParallelSweeper(g, plan, disableOuter, workers)
	t1 := time.Now()
	block, err := iterate(sw, st)
	if err != nil {
		return nil, nil, err
	}
	st.SweepTime = time.Since(t1)
	sws := sw.Stats()
	st.InnerAdds, st.OuterAdds = sws.InnerAdds, sws.OuterAdds
	st.AuxBytes = sw.AuxBytes() + plan.Bytes()
	return simmat.Expand(sw.Slots(), block, diag), st, nil
}

// Compute runs OIP-SR (Algorithm 1) on g and returns s_K plus statistics.
// The scores come as the m x m block over the vertices with a non-empty
// in-set, expanded with diagonal 1 (see the package comment): every cell
// reads bit for bit what the full n x n iteration computes.
//
// With opt.Tile.BlockSize > 0 both iterates live in one TileStore, so
// opt.Tile's MaxMemoryBytes bounds the whole m^2 state, with evicted tiles
// spilled to disk. Scores are bit-identical to the dense backend for every
// block size and worker count. The caller owns a tiled result: Close it to
// release the store and its spill files.
func Compute(g *graph.Graph, opt Options) (*simmat.Expanded, *Stats, error) {
	if err := opt.normalize(); err != nil {
		return nil, nil, err
	}
	return Run(g, false, opt.DisableOuter, opt.Workers, 1, func(sw *Sweeper, st *Stats) (simmat.Source, error) {
		if opt.Tile.Enabled() {
			return iterateTiled(sw, opt, st)
		}
		return iterateDense(sw, opt, st), nil
	})
}

// iterateDense runs the K sweeps on dense m x m iterates.
func iterateDense(sw *Sweeper, opt Options, st *Stats) *simmat.Matrix {
	prev := simmat.NewIdentity(sw.Kept())
	next := simmat.New(sw.Kept())
	// Sweep overwrites its input, so the stopping rule compares next with
	// a copy of prev taken before the sweep.
	var last *simmat.Matrix
	if opt.StopDiff > 0 {
		last = simmat.New(sw.Kept())
	}
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
	st.StateBytes = prev.Bytes() + next.Bytes()
	if last != nil {
		st.StateBytes += last.Bytes()
	}
	return prev
}

// iterateTiled runs the K sweeps on tiled iterates drawn from one
// TileStore, which the result keeps.
func iterateTiled(sw *Sweeper, opt Options, st *Stats) (*simmat.Tiled, error) {
	store, err := simmat.NewTileStore(opt.Tile)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*simmat.Tiled, error) {
		store.Close()
		return nil, err
	}
	prev, err := store.NewIdentity(sw.Kept())
	if err != nil {
		return fail(err)
	}
	next, err := store.NewTiled(sw.Kept())
	if err != nil {
		return fail(err)
	}
	for iter := 0; iter < opt.K; iter++ {
		if err := sw.SweepTiled(prev, next, 1, opt.C, true); err != nil {
			return fail(err)
		}
		st.Iterations++
		if opt.StopDiff > 0 {
			if st.FinalDiff, err = simmat.MaxDiffTiled(prev, next); err != nil {
				return fail(err)
			}
			prev, next = next, prev
			if st.FinalDiff <= opt.StopDiff {
				break
			}
			continue
		}
		prev, next = next, prev
	}
	st.StateBytes = prev.Bytes() + next.Bytes()
	next.Release()
	st.Tile = store.Metrics()
	return prev, nil
}
