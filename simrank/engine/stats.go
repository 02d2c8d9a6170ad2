package engine

import "time"

// Stats reports what a computation did. Fields not applicable to the chosen
// engine are zero. The simrank package aliases this type as simrank.Stats.
type Stats struct {
	Algorithm  Algorithm
	Iterations int

	// PlanTime covers preprocessing (DMST-Reduce for the OIP engines, the
	// truncated SVD for MtxSR, the diagonal-correction solve for
	// Linearized); ComputeTime covers the iteration phase.
	PlanTime    time.Duration
	ComputeTime time.Duration

	// InnerAdds and OuterAdds count scalar additions on inner/outer partial
	// sums (the paper's cost unit). Zero for Naive and MtxSR.
	InnerAdds int64
	OuterAdds int64

	// AuxBytes is auxiliary memory beyond the score matrices — the
	// "intermediate memory" of the paper's Fig. 6d. StateBytes is the
	// quadratic state the engine holds while running: n^2 cells a matrix,
	// or m^2 for OIP-SR and OIP-DSR, whose matrices are blocks over the m
	// vertices with a non-empty in-set.
	AuxBytes   int64
	StateBytes int64

	// Sharing metrics (OIP engines): fraction of partial-sum additions
	// avoided, the mean symmetric-difference size d_(+) over shared MST
	// edges, and the number of non-empty in-neighbor sets.
	ShareRatio float64
	AvgDiff    float64
	NumSets    int

	// FinalDiff is the last successive-iterate max-norm difference when
	// StopDiff was used.
	FinalDiff float64

	// Rank is the SVD rank used (MtxSR).
	Rank int

	// Residual is the final solve residual of the linear-system engines:
	// the diagonal-correction max-norm residual for Linearized.
	Residual float64

	// SievedPairs counts threshold-sieved scores (PsumSR).
	SievedPairs int64

	// Tiled-backend accounting (zero unless Options.BlockSize > 0):
	// TilePeakBytes is the peak resident tile memory, TileSpills counts
	// dirty tiles evicted to disk, TileLoads counts tiles paged back in,
	// and TileSpilledBytes is the exact cumulative spill traffic.
	TilePeakBytes    int64
	TileSpills       int64
	TileLoads        int64
	TileSpilledBytes int64
}
