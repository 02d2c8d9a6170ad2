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
// When opt.BlockSize > 0 the engines that support it (OIPSR, OIPDSR,
// PsumSR, Naive) run against the tiled score-matrix backend: bounded
// resident memory (opt.MaxMemoryBytes) with spill-to-disk, and scores
// bit-identical to the dense backend. Call Scores.Close on tiled results
// when done.
func Compute(g *graph.Graph, opt Options) (*Scores, *Stats, error) {
	return ComputeContext(context.Background(), g, opt)
}

// ComputeContext is Compute with a context. Engines that advertise
// cancellation (Linearized, at solve-step boundaries; MonteCarlo, once per
// fingerprint of every row) return ctx.Err() when the context ends
// mid-computation; the classic sweep engines run to completion regardless.
func ComputeContext(ctx context.Context, g *graph.Graph, opt Options) (*Scores, *Stats, error) {
	alg := opt.Algorithm
	if alg == "" {
		alg = OIPSR
	}
	eng, ok := engine.Get(alg)
	if !ok {
		return nil, nil, fmt.Errorf("simrank: unknown algorithm %q", alg)
	}
	p := opt.params()
	if opt.BlockSize > 0 {
		if !eng.Caps().Tiled {
			return nil, nil, fmt.Errorf("simrank: the tiled backend (BlockSize > 0) does not support algorithm %q", alg)
		}
		src, st, err := eng.ComputeTiled(ctx, g, p)
		if err != nil {
			return nil, nil, err
		}
		return &Scores{src: src}, st, nil
	}
	src, st, err := eng.Compute(ctx, g, p)
	if err != nil {
		return nil, nil, err
	}
	return &Scores{src: src}, st, nil
}
