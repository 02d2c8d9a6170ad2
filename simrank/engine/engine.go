// Package engine defines the pluggable SimRank engine registry.
//
// An Engine is one SimRank backend: it declares its capabilities (all-pairs,
// tiled all-pairs, single-source, single-pair) and exposes uniform
// Compute/ComputeTiled/SingleSource entry points over a normalized Params
// struct. The seven classic backends (oip-sr, oip-dsr, psum-sr, naive,
// mtx-sr, p-rank, monte-carlo) self-register from this package's init
// functions; the linearized engine (internal/linsr) registers alongside
// them. simrank.Compute is a thin dispatch over this registry, and registry
// membership is the single source of truth for Algorithm.Valid and the
// cmd/simrank -algo help text.
//
// Engines must be deterministic: for a fixed Params, scores are
// bit-identical for every worker count. Entry points a backend does not
// support return an error (see Caps); callers gate on Caps before
// dispatching when they want a friendlier failure mode.
package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"oipsr/graph"
	"oipsr/internal/numeric"
	"oipsr/internal/simmat"
)

// Algorithm names a registered SimRank engine.
type Algorithm string

// The built-in engines. See the simrank package documentation for the
// trade-offs.
const (
	// OIPSR is the paper's partial-sums-sharing algorithm (Algorithm 1),
	// the default.
	OIPSR Algorithm = "oip-sr"
	// OIPDSR is the differential (exponential-convergence) SimRank with
	// OIP sharing.
	OIPDSR Algorithm = "oip-dsr"
	// PsumSR is Lizorkin et al.'s partial sums memoization baseline.
	PsumSR Algorithm = "psum-sr"
	// Naive is the original Jeh-Widom iteration.
	Naive Algorithm = "naive"
	// MtxSR is Li et al.'s SVD-based low-rank approximation.
	MtxSR Algorithm = "mtx-sr"
	// PRank is Penetrating Rank (Zhao et al.): SimRank generalized to use
	// both in- and out-links, with OIP sharing applied in both directions —
	// the extension the paper's Related Work describes.
	PRank Algorithm = "p-rank"
	// MonteCarlo is the Fogaras-Racz sampling estimator: s(a,b) is
	// estimated from the first meeting time of coupled reverse random
	// walks. Probabilistic; Theta(n^2) time independent of K.
	MonteCarlo Algorithm = "monte-carlo"
	// Linearized is Maehara et al.'s linearization: SimRank as the solution
	// of S = C·Q·S·Qᵀ + D for a diagonal correction D, answering exact
	// single-source and single-pair queries with no n² state.
	Linearized Algorithm = "linearized"
)

// Valid reports whether a names a registered engine.
func (a Algorithm) Valid() bool {
	_, ok := Get(a)
	return ok
}

// Caps declares which entry points an engine supports.
type Caps struct {
	// AllPairs: Compute materializes the full score matrix.
	AllPairs bool
	// Tiled: ComputeTiled runs against the tiled score-matrix backend
	// (bounded resident memory, spill-to-disk).
	Tiled bool
	// SingleSource: SingleSource answers one row without n² state.
	SingleSource bool
	// SinglePair: the backend can score one (a,b) pair without a full row
	// (served through the engine's own package, e.g. linsr.Solver.Pair;
	// the registry interface carries no pair entry point).
	SinglePair bool
}

// Params is the normalized option set handed to engines. It mirrors
// simrank.Options with the tiled-backend knobs folded into Tile; each
// engine reads the fields it documents and ignores the rest, applying its
// own defaulting (C = 0.6, eps = 1e-3, ...) exactly as before the registry
// existed.
type Params struct {
	C       float64
	K       int
	Eps     float64
	Workers int

	StopDiff  float64
	Threshold float64
	Rank      int
	Seed      int64
	Lambda    float64
	COut      float64
	Walks     int

	DisableOuterSharing bool

	Tile simmat.TileOptions
}

// Engine is one SimRank backend behind the registry seam.
//
// Compute and ComputeTiled materialize all-pairs scores; SingleSource
// answers one row. Backends ignore ctx unless they advertise cancellation
// (today only Linearized checks it, at solve-step boundaries); entry points
// outside the engine's Caps return an error.
type Engine interface {
	Name() Algorithm
	Caps() Caps
	Compute(ctx context.Context, g *graph.Graph, p Params) (simmat.Source, *Stats, error)
	ComputeTiled(ctx context.Context, g *graph.Graph, p Params) (simmat.Source, *Stats, error)
	SingleSource(ctx context.Context, g *graph.Graph, p Params, q int) ([]float64, *Stats, error)
}

var (
	regMu    sync.RWMutex
	registry = make(map[Algorithm]Engine)
)

// Register adds e to the registry. Registering two engines under one name
// panics: engine names are API surface (CLI flags, HTTP parameters) and a
// silent override would repoint them.
func Register(e Engine) {
	name := e.Name()
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: duplicate registration of %q", name))
	}
	registry[name] = e
}

// Get returns the engine registered under a.
func Get(a Algorithm) (Engine, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[a]
	return e, ok
}

// Names returns the registered engine names, sorted.
func Names() []Algorithm {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]Algorithm, 0, len(registry))
	for a := range registry {
		names = append(names, a)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}

// NameList returns the registered engine names joined by sep, for flag help
// text and error messages.
func NameList(sep string) string {
	names := Names()
	parts := make([]string, len(names))
	for i, a := range names {
		parts[i] = string(a)
	}
	return strings.Join(parts, sep)
}

// base supplies Name and the not-supported entry points; engine
// implementations embed it and override what they support.
type base struct{ name Algorithm }

func (b base) Name() Algorithm { return b.name }

func (b base) Compute(context.Context, *graph.Graph, Params) (simmat.Source, *Stats, error) {
	return nil, nil, fmt.Errorf("simrank: algorithm %q does not materialize all-pairs scores", b.name)
}

func (b base) ComputeTiled(context.Context, *graph.Graph, Params) (simmat.Source, *Stats, error) {
	return nil, nil, fmt.Errorf("simrank: the tiled backend (BlockSize > 0) does not support algorithm %q", b.name)
}

func (b base) SingleSource(context.Context, *graph.Graph, Params, int) ([]float64, *Stats, error) {
	return nil, nil, fmt.Errorf("simrank: algorithm %q does not answer single-source queries", b.name)
}

// geometricSchedule applies the shared defaulting rules (C = 0.6,
// eps = 1e-3, Lizorkin iteration bound) for the engines that take a plain
// (C, K) pair.
func geometricSchedule(p Params) (c float64, k int, err error) {
	c = p.C
	if c == 0 {
		c = 0.6
	}
	if !(c > 0 && c < 1) {
		return 0, 0, fmt.Errorf("simrank: damping factor %v outside (0,1)", c)
	}
	k = p.K
	if k < 0 {
		return 0, 0, fmt.Errorf("simrank: negative iteration count %d", k)
	}
	if k == 0 {
		eps := p.Eps
		if eps == 0 {
			eps = 1e-3
		}
		if !(eps > 0 && eps < 1) {
			return 0, 0, fmt.Errorf("simrank: accuracy eps %v outside (0,1)", eps)
		}
		k = numeric.IterationsConventional(c, eps)
	}
	return c, k, nil
}
