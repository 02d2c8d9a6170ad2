// Package linsr implements linearized SimRank (Maehara, Kusumoto,
// Kawarabayashi: "Efficient SimRank Computation via Linearization").
//
// SimRank's fixed point satisfies the linear matrix equation
//
//	S = C · Q S Qᵀ + D
//
// where Q is the in-neighbor averaging operator (row i of QX is the mean of
// X's rows over I(i)) and D is a diagonal correction chosen so that
// diag(S) = 1. Expanding the recursion gives the truncated series
//
//	S ≈ Σ_{t=0}^{T} C^t · Q^t D (Qᵀ)^t,     tail ≤ C^{T+1}/(1-C),
//
// which turns SimRank into two small problems: (1) estimate the n diagonal
// entries of D once per graph, and (2) answer a single-source query by T
// sparse operator applications — no n² state anywhere.
//
// D estimation solves A·d = 1 where A_{av} = Σ_t C^t ((Q^t)_{av})², by
// damped Richardson sweeps: each sweep evaluates diag(S) under the current
// d (a per-vertex truncated series over sparse (Qᵀ)^t e_a walks, vertices
// in parallel), then steps d toward the residual 1 − diag(S). Plain
// Richardson can diverge (on a directed n-cycle the constant vector has
// A-eigenvalue Σ_t C^t ≈ 1/(1-C)), so the step halves whenever the max-norm
// residual grows; the final residual is reported in Stats.
//
// Single-source answers row q by storing x_t = (Qᵀ)^t e_q for t = 0..T and
// folding the series inward (Horner): z = D·x_T, then z = D·x_t + C·Q·z.
// The cost is O(T·m) time and O(T·n) transient scratch.
//
// Everything is deterministic: sweeps partition vertices across workers but
// each vertex's arithmetic is self-contained, so d — and therefore every
// score — is bit-identical for every worker count, and a row of Compute's
// all-pairs output is bit-identical to the same SingleSource call.
package linsr

import (
	"context"
	"fmt"
	"math"
	"time"

	"oipsr/graph"
	"oipsr/internal/numeric"
	"oipsr/internal/par"
)

// Options configure New.
type Options struct {
	// C is the damping factor in (0,1); 0 means 0.6.
	C float64
	// Tol is the target accuracy: it picks the series horizon (unless T is
	// set) and is the max-norm residual the diagonal solve must reach.
	// 0 means 1e-10.
	Tol float64
	// T fixes the series horizon. 0 derives the smallest T with
	// C^(T+1) ≤ Tol (the Lizorkin bound, as the geometric engines use).
	T int
	// MaxSweeps caps the diagonal-solve Richardson sweeps; 0 means 500.
	MaxSweeps int
	// Workers sets the worker-pool size of the diagonal solve: 1 means
	// serial, anything below 1 means all CPUs. Results are bit-identical
	// for every worker count.
	Workers int
}

func (o *Options) normalize() error {
	if o.C == 0 {
		o.C = 0.6
	}
	if !(o.C > 0 && o.C < 1) {
		return fmt.Errorf("linsr: damping factor %v outside (0,1)", o.C)
	}
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if !(o.Tol > 0 && o.Tol < 1) {
		return fmt.Errorf("linsr: tolerance %v outside (0,1)", o.Tol)
	}
	if o.T < 0 {
		return fmt.Errorf("linsr: negative series horizon %d", o.T)
	}
	if o.T == 0 {
		o.T = numeric.IterationsConventional(o.C, o.Tol)
	}
	if o.MaxSweeps == 0 {
		o.MaxSweeps = 500
	}
	return nil
}

// Stats reports what building the solver did.
type Stats struct {
	// Horizon is the series truncation T.
	Horizon int
	// SolveIters is the number of Richardson sweeps the diagonal solve ran.
	SolveIters int
	// Residual is the final max-norm residual ‖1 − diag(S)‖∞ of the solve.
	Residual float64
	// BuildTime is the wall time of the diagonal solve.
	BuildTime time.Duration
	// AuxBytes is the solver's resident memory (the diagonal) plus the
	// scratch one single-source query allocates.
	AuxBytes int64
}

// Solver answers exact (to the solve tolerance) SimRank queries over one
// graph with no n² state. Build it once with New, then call SingleSource /
// Pair from any number of goroutines: the solver is immutable after New.
type Solver struct {
	g     *graph.Graph
	c     float64
	t     int // series horizon
	d     []float64
	stats Stats
}

// New estimates the diagonal correction D for g and returns a ready solver.
// The context is checked at sweep boundaries (and within sweeps every few
// vertices); cancellation returns ctx.Err(). A graph whose diagonal solve
// does not reach Options.Tol within Options.MaxSweeps is reported as an
// error rather than served with a silently wrong D.
func New(ctx context.Context, g *graph.Graph, opt Options) (*Solver, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	s := &Solver{g: g, c: opt.C, t: opt.T, d: make([]float64, n)}
	s.stats.Horizon = opt.T
	s.stats.AuxBytes = int64(n) * 8 * int64(opt.T+4)
	// d = (1-C)·1 is the exact solution when every vertex lies on uniform
	// in-degree cycles (and the exact series prefactor of Eq. 12's form);
	// it is the customary starting point.
	for i := range s.d {
		s.d[i] = 1 - opt.C
	}
	if n == 0 {
		return s, nil
	}

	t0 := time.Now()
	workers := par.ResolveMax(opt.Workers, n)
	r := make([]float64, n)
	scratch := make([]*diagScratch, workers)
	for w := range scratch {
		scratch[w] = newDiagScratch(n)
	}
	errs := make([]error, workers)
	step := 1.0
	best := math.Inf(1)
	resid := math.Inf(1)
	for it := 1; it <= opt.MaxSweeps; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		par.Do(workers, func(w int) {
			cc := par.NewCancelChecker(ctx, 8)
			lo, hi := par.Range(n, workers, w)
			for a := lo; a < hi; a++ {
				if err := cc.Stop(); err != nil {
					errs[w] = err
					return
				}
				r[a] = s.diagAt(a, scratch[w])
			}
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		resid = 0
		for a := 0; a < n; a++ {
			if dev := math.Abs(1 - r[a]); dev > resid {
				resid = dev
			}
		}
		s.stats.SolveIters = it
		s.stats.Residual = resid
		if resid <= opt.Tol {
			break
		}
		if math.IsNaN(resid) {
			return nil, fmt.Errorf("linsr: diagonal solve produced NaN after %d sweeps", it)
		}
		if resid > best {
			// Overshoot: the Richardson step is too long for this graph's
			// spectrum (directed cycles push A's largest eigenvalue toward
			// 1/(1-C)). Halve and retry; a step this small that still grows
			// the residual means the iteration is genuinely divergent.
			step /= 2
			if step < 1.0/(1<<20) {
				return nil, fmt.Errorf("linsr: diagonal solve diverged (residual %g after %d sweeps)", resid, it)
			}
		} else {
			best = resid
		}
		// float64(...) is the Go spec's explicit rounding: it forbids a
		// multiply-add here and below, so arm64 rounds as amd64 does.
		for a := 0; a < n; a++ {
			s.d[a] += float64(step * (1 - r[a]))
		}
	}
	if resid > opt.Tol {
		return nil, fmt.Errorf("linsr: diagonal solve did not reach tolerance %g (residual %g after %d sweeps)", opt.Tol, resid, s.stats.SolveIters)
	}
	s.stats.BuildTime = time.Since(t0)
	return s, nil
}

// N returns the number of vertices the solver was built for.
func (s *Solver) N() int { return s.g.NumVertices() }

// C returns the damping factor.
func (s *Solver) C() float64 { return s.c }

// Stats returns the build statistics.
func (s *Solver) Stats() Stats { return s.stats }

// diagScratch is the per-worker state of one diagonal sweep: two sparse
// vectors with their active-index lists.
type diagScratch struct {
	x, y   []float64
	ax, ay []int
}

func newDiagScratch(n int) *diagScratch {
	return &diagScratch{x: make([]float64, n), y: make([]float64, n)}
}

// diagAt evaluates row a of the diagonal map under the current d:
//
//	diag(S)_a = Σ_{t=0}^{T} C^t Σ_v d_v ((Qᵀ)^t e_a)_v²
//
// by walking x_t = (Qᵀ)^t e_a as a sparse vector. Deterministic for a given
// (a, d): actives are visited in insertion order and in-neighbor lists in
// CSR order, independent of the worker partition.
func (s *Solver) diagAt(a int, sc *diagScratch) float64 {
	x, y, ax, ay := sc.x, sc.y, sc.ax[:0], sc.ay[:0]
	x[a] = 1
	ax = append(ax, a)
	total := s.d[a] // the t = 0 term
	pw := 1.0
	for t := 1; t <= s.t && len(ax) > 0; t++ {
		pw *= s.c
		ay = ay[:0]
		for _, i := range ax {
			in := s.g.In(i)
			if len(in) == 0 {
				continue
			}
			w := x[i] / float64(len(in))
			if w == 0 {
				continue
			}
			for _, j := range in {
				if y[j] == 0 {
					ay = append(ay, j)
				}
				y[j] += w
			}
		}
		term := 0.0
		for _, j := range ay {
			v := y[j]
			term += float64(s.d[j] * v * v)
		}
		total += float64(pw * term)
		for _, i := range ax {
			x[i] = 0
		}
		x, y = y, x
		ax, ay = ay, ax
	}
	for _, i := range ax {
		x[i] = 0
	}
	sc.x, sc.y, sc.ax, sc.ay = x, y, ax[:0], ay[:0]
	return total
}

// Scratch is the reusable per-goroutine workspace of SingleSourceScratch:
// the T+1 stored walk vectors plus one fold buffer. One scratch serves any
// number of sequential queries; concurrent queries need one each.
type Scratch struct {
	xs  [][]float64
	tmp []float64
}

// NewScratch allocates a workspace sized for this solver.
func (s *Solver) NewScratch() *Scratch {
	n := s.g.NumVertices()
	sc := &Scratch{xs: make([][]float64, s.t+1), tmp: make([]float64, n)}
	for t := range sc.xs {
		sc.xs[t] = make([]float64, n)
	}
	return sc
}

// SingleSource computes row q of the SimRank matrix into dst (allocated
// when nil or mis-sized) and returns it. The context is checked at every
// series-step boundary. The result is exact up to the solve tolerance; its
// entry at q is 1 up to the solve residual (the walk engines pin it to 1).
func (s *Solver) SingleSource(ctx context.Context, q int, dst []float64) ([]float64, error) {
	return s.SingleSourceScratch(ctx, q, dst, nil)
}

// SingleSourceScratch is SingleSource with a caller-owned workspace, for
// callers answering many queries (the all-pairs engine).
func (s *Solver) SingleSourceScratch(ctx context.Context, q int, dst []float64, sc *Scratch) ([]float64, error) {
	n := s.g.NumVertices()
	if q < 0 || q >= n {
		return nil, fmt.Errorf("linsr: source vertex %d out of range [0,%d)", q, n)
	}
	if dst == nil || len(dst) != n {
		dst = make([]float64, n)
	}
	if sc == nil {
		sc = s.NewScratch()
	}
	// Forward pass: x_t = (Qᵀ)^t e_q.
	x0 := sc.xs[0]
	for i := range x0 {
		x0[i] = 0
	}
	x0[q] = 1
	for t := 1; t <= s.t; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		applyQT(s.g, sc.xs[t-1], sc.xs[t])
	}
	// Inward fold (Horner): z = D·x_T, then z = D·x_t + C·Q·z.
	z := dst
	xT := sc.xs[s.t]
	for j := range z {
		z[j] = s.d[j] * xT[j]
	}
	for t := s.t - 1; t >= 0; t-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		applyQ(s.g, z, sc.tmp)
		xt := sc.xs[t]
		for j := range z {
			z[j] = float64(s.d[j]*xt[j]) + float64(s.c*sc.tmp[j])
		}
	}
	return dst, nil
}

// Pair computes the single score s(a,b) in O(T·(n+m)) time and O(n)
// scratch, without materializing either row: it streams both walk vectors
// and accumulates Σ_t C^t · x_tᵃᵀ D x_tᵇ. The diagonal is 1 by definition.
func (s *Solver) Pair(ctx context.Context, a, b int) (float64, error) {
	n := s.g.NumVertices()
	if a < 0 || a >= n || b < 0 || b >= n {
		return 0, fmt.Errorf("linsr: pair (%d,%d) out of range [0,%d)", a, b, n)
	}
	if a == b {
		return 1, nil
	}
	xa := make([]float64, n)
	xb := make([]float64, n)
	ya := make([]float64, n)
	yb := make([]float64, n)
	xa[a], xb[b] = 1, 1
	total := 0.0 // t = 0 term is 0 for a != b
	pw := 1.0
	for t := 1; t <= s.t; t++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		pw *= s.c
		applyQT(s.g, xa, ya)
		applyQT(s.g, xb, yb)
		term := 0.0
		for v := 0; v < n; v++ {
			term += float64(s.d[v] * ya[v] * yb[v])
		}
		total += float64(pw * term)
		xa, ya = ya, xa
		xb, yb = yb, xb
	}
	return total, nil
}

// applyQ computes dst = Q·x: dst[i] is the mean of x over In(i), 0 for
// vertices without in-neighbors.
func applyQ(g *graph.Graph, x, dst []float64) {
	for i := range dst {
		in := g.In(i)
		if len(in) == 0 {
			dst[i] = 0
			continue
		}
		sum := 0.0
		for _, u := range in {
			sum += x[u]
		}
		dst[i] = sum / float64(len(in))
	}
}

// applyQT computes dst = Qᵀ·x by scattering: every vertex i with x[i] ≠ 0
// sends x[i]/|I(i)| to each of its in-neighbors.
func applyQT(g *graph.Graph, x, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for i, v := range x {
		if v == 0 {
			continue
		}
		in := g.In(i)
		if len(in) == 0 {
			continue
		}
		w := v / float64(len(in))
		for _, j := range in {
			dst[j] += w
		}
	}
}
