package simrank

import (
	"context"
	"fmt"

	"oipsr/graph"
	"oipsr/simrank/engine"
)

// Compute runs the selected SimRank engine over g and returns the all-pairs
// scores plus run statistics. See Options for the engine-specific knobs.
//
// Engines are looked up in the simrank/engine registry — registry
// membership is what makes an Algorithm valid — and every registered
// engine produces scores bit-identical for any worker count.
//
// When opt.BlockSize > 0 the engines that support it (OIPSR, OIPDSR) run
// against the tiled score-matrix backend: bounded resident memory
// (opt.MaxMemoryBytes) with spill-to-disk, and scores bit-identical to the
// dense backend. Call Scores.Close on tiled results when done. Compute
// returns the error of opt.Validate before it reads g.
func Compute(g *graph.Graph, opt Options) (*Scores, *Stats, error) {
	return ComputeContext(context.Background(), g, opt)
}

// ComputeContext is Compute with a context. Engines that advertise
// cancellation (Linearized, at solve-step boundaries; MonteCarlo, once per
// fingerprint of every row) return ctx.Err() when the context ends
// mid-computation; the classic sweep engines run to completion regardless.
func ComputeContext(ctx context.Context, g *graph.Graph, opt Options) (*Scores, *Stats, error) {
	eng, err := opt.engine()
	if err != nil {
		return nil, nil, err
	}
	src, st, err := eng.Compute(ctx, g, opt.params())
	if err != nil {
		return nil, nil, err
	}
	return &Scores{src: src}, st, nil
}

// Validate reports the request errors Compute returns without reading a
// graph: an unregistered Algorithm, a negative BlockSize, MaxMemoryBytes
// or SpillDir without BlockSize > 0, and BlockSize > 0 for an engine whose
// Caps().Tiled is unset.
func (o Options) Validate() error {
	_, err := o.engine()
	return err
}

// engine looks up o's engine and checks the tiled-backend knobs against it.
func (o Options) engine() (engine.Engine, error) {
	alg := o.Algorithm
	if alg == "" {
		alg = OIPSR
	}
	eng, ok := engine.Get(alg)
	if !ok {
		return nil, fmt.Errorf("simrank: unknown algorithm %q", alg)
	}
	switch {
	case o.BlockSize < 0:
		return nil, fmt.Errorf("simrank: negative BlockSize %d (0 selects the dense backend)", o.BlockSize)
	case o.BlockSize == 0 && (o.MaxMemoryBytes != 0 || o.SpillDir != ""):
		return nil, fmt.Errorf("simrank: MaxMemoryBytes and SpillDir configure the tiled backend, which BlockSize 0 leaves off")
	case o.BlockSize > 0 && !eng.Caps().Tiled:
		return nil, fmt.Errorf("simrank: the tiled backend (BlockSize > 0) does not support algorithm %q", alg)
	}
	return eng, nil
}
