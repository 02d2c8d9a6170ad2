package linsr

import (
	"context"
	"sync"
	"sync/atomic"

	"oipsr/graph"
)

// Lazy holds the solver of one graph version, built by the first call that
// asks for it: the exact engine of a serving index and of the
// scatter/gather router each keep one. A version is the key (gen, g) — a
// caller that tracks edits by graph pointer alone passes gen 0 — and a
// call for another version builds anew and replaces the one held.
//
// The build runs under a one-token channel, not a mutex, so every caller
// waits for a running build under its own context: one whose deadline
// passes first returns the context's error then, instead of queueing
// behind the whole diagonal solve. Stats never waits. The zero value is
// ready to use.
type Lazy struct {
	once  sync.Once
	token chan struct{} // holds a value while a build runs
	cur   atomic.Pointer[lazySolver]
}

// lazySolver is a built solver, the version it was built for, and the
// scratch pool of its queries.
type lazySolver struct {
	gen     uint64
	g       *graph.Graph
	solver  *Solver
	scratch sync.Pool // of *Scratch
}

// held returns the solver held for (gen, g), nil if there is none.
func (l *Lazy) held(gen uint64, g *graph.Graph) *lazySolver {
	if ls := l.cur.Load(); ls != nil && ls.gen == gen && ls.g == g {
		return ls
	}
	return nil
}

// Stats returns the build statistics of the solver held for (gen, g), and
// whether there is one. It never waits for a running build.
func (l *Lazy) Stats(gen uint64, g *graph.Graph) (Stats, bool) {
	if ls := l.held(gen, g); ls != nil {
		return ls.solver.Stats(), true
	}
	return Stats{}, false
}

// Solver returns the solver for (gen, g), building it with opt — under ctx,
// which also bounds the wait for another caller's build — when none is
// held. held reports that it was already built when the call began.
func (l *Lazy) Solver(ctx context.Context, gen uint64, g *graph.Graph, opt Options) (sol *Solver, held bool, err error) {
	ls, held, err := l.get(ctx, gen, g, opt)
	if err != nil {
		return nil, false, err
	}
	return ls.solver, held, nil
}

// SingleSource answers row q from the solver for (gen, g) (see Solver) with
// a pooled scratch; dst follows Solver.SingleSource. held is Solver's.
func (l *Lazy) SingleSource(ctx context.Context, gen uint64, g *graph.Graph, opt Options, q int, dst []float64) (row []float64, held bool, err error) {
	ls, held, err := l.get(ctx, gen, g, opt)
	if err != nil {
		return nil, false, err
	}
	sc := ls.scratch.Get().(*Scratch)
	defer ls.scratch.Put(sc)
	row, err = ls.solver.SingleSourceScratch(ctx, q, dst, sc)
	return row, held, err
}

func (l *Lazy) get(ctx context.Context, gen uint64, g *graph.Graph, opt Options) (*lazySolver, bool, error) {
	if ls := l.held(gen, g); ls != nil {
		return ls, true, nil
	}
	l.once.Do(func() { l.token = make(chan struct{}, 1) })
	select {
	case l.token <- struct{}{}:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	defer func() { <-l.token }()
	if ls := l.held(gen, g); ls != nil {
		return ls, false, nil // built while this call waited
	}
	sol, err := New(ctx, g, opt)
	if err != nil {
		return nil, false, err
	}
	ls := &lazySolver{gen: gen, g: g, solver: sol}
	ls.scratch.New = func() any { return sol.NewScratch() }
	l.cur.Store(ls)
	return ls, false, nil
}
