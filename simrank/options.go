package simrank

import (
	"oipsr/internal/simmat"
	"oipsr/simrank/engine"
)

// Algorithm selects the SimRank engine. It aliases engine.Algorithm: the
// simrank/engine registry is the single source of truth for which names
// exist, and Algorithm.Valid reports registry membership.
type Algorithm = engine.Algorithm

// The built-in engines, re-exported from the registry package. See the
// package documentation for the trade-offs.
const (
	// OIPSR is the paper's partial-sums-sharing algorithm (Algorithm 1),
	// the default.
	OIPSR = engine.OIPSR
	// OIPDSR is the differential (exponential-convergence) SimRank with
	// OIP sharing.
	OIPDSR = engine.OIPDSR
	// PsumSR is Lizorkin et al.'s partial sums memoization baseline.
	PsumSR = engine.PsumSR
	// Naive is the original Jeh-Widom iteration.
	Naive = engine.Naive
	// MtxSR is Li et al.'s SVD-based low-rank approximation.
	MtxSR = engine.MtxSR
	// MonteCarlo is the Fogaras-Racz sampling estimator, answered as every
	// row of a walk index (package simrank/query): probabilistic, each row
	// bit-identical to query.Index.SingleSource under the same C, K, Eps,
	// Walks and Seed.
	MonteCarlo = engine.MonteCarlo
	// Linearized is Maehara et al.'s linearization: a diagonal-correction
	// solve turns SimRank into a linear system, answering exact
	// single-source and single-pair queries with no n^2 state.
	Linearized = engine.Linearized
)

// Options configure Compute. The zero value means: OIP-SR, C = 0.6,
// accuracy eps = 1e-3 (the paper's defaults).
//
// The sharing plan of OIPSR and OIPDSR (the paper's DMST-Reduce)
// takes no options: it is a function of the graph alone, one minimum
// spanning arborescence over the in-neighbor sets with ties broken by
// (in-degree, id) rank.
type Options struct {
	// Algorithm selects the engine; empty means OIPSR.
	Algorithm Algorithm

	// C is the damping factor in (0,1); 0 means 0.6.
	C float64

	// K fixes the iteration count. 0 means derive it from Eps: the
	// Lizorkin bound ceil(log_C eps)-style count for the geometric engines,
	// the Proposition-7 count for OIPDSR. For Linearized, K pins the series
	// horizon the same way.
	K int

	// Eps is the desired accuracy when K == 0; 0 means 1e-3. For
	// Linearized it is also the diagonal-solve tolerance.
	Eps float64

	// Workers sets the worker-pool size of the iteration phase: 1 means
	// serial, anything below 1 means runtime.GOMAXPROCS(0). Every engine
	// partitions work so that scores — and, where reported, operation
	// counts — are bit-identical for every worker count.
	Workers int

	// StopDiff, when positive, stops geometric engines early once the
	// max-norm difference of successive iterates falls to or below it
	// (OIP-SR only; ignored elsewhere). OIP-SR then holds one more m x m
	// block of 8-byte scores (m = vertices with a non-empty in-set): the
	// copy of each iterate that the sweep overwrites.
	StopDiff float64

	// Threshold enables psum-SR threshold sieving (PsumSR only).
	Threshold float64

	// Rank is the SVD truncation rank (MtxSR only); 0 means ceil(sqrt(n)).
	Rank int

	// Seed seeds randomized stages (MtxSR's SVD start block, MonteCarlo's
	// walks).
	Seed int64

	// Walks is the number of coupled-walk fingerprints R (MonteCarlo
	// only); 0 means 100, and at most 65535.
	Walks int

	// DisableOuterSharing ablates outer partial-sums sharing (OIPSR only).
	DisableOuterSharing bool

	// BlockSize, when positive, selects the tiled score-matrix backend:
	// the n x n state becomes a grid of BlockSize x BlockSize tiles with
	// symmetric (upper-triangular) storage, a bounded working set, and
	// spill-to-disk for evicted tiles. Supported by the engines whose
	// Caps().Tiled is set (OIPSR, OIPDSR), which hold only the m x m block
	// of the vertices with a non-empty in-set; Compute rejects it for the
	// others, and rejects a negative BlockSize. Scores are bit-identical to
	// the dense backend for every block size and worker count. Results
	// computed this way hold tile resources — call Scores.Close when done.
	BlockSize int

	// MaxMemoryBytes caps the resident tile bytes of the whole computation
	// (all score matrices together) when the tiled backend is selected;
	// least-recently-used tiles are evicted to SpillDir when the cap is
	// hit. 0 means unbounded. Compute rejects it unless BlockSize > 0.
	MaxMemoryBytes int64

	// SpillDir is where evicted tiles are written (a fresh temporary
	// directory when empty, removed on Scores.Close). Compute rejects it
	// unless BlockSize > 0.
	SpillDir string
}

// params flattens the Options into the normalized engine.Params handed to
// registry engines (the tiled knobs fold into Tile).
func (o Options) params() engine.Params {
	return engine.Params{
		C:                   o.C,
		K:                   o.K,
		Eps:                 o.Eps,
		Workers:             o.Workers,
		StopDiff:            o.StopDiff,
		Threshold:           o.Threshold,
		Rank:                o.Rank,
		Seed:                o.Seed,
		Walks:               o.Walks,
		DisableOuterSharing: o.DisableOuterSharing,
		Tile: simmat.TileOptions{
			BlockSize:      o.BlockSize,
			MaxMemoryBytes: o.MaxMemoryBytes,
			SpillDir:       o.SpillDir,
		},
	}
}

// Stats reports what a computation did. It aliases engine.Stats; fields not
// applicable to the chosen engine are zero.
type Stats = engine.Stats
