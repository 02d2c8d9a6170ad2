package core

import (
	"fmt"
	"math"
	"testing"

	"oipsr/graph"
	"oipsr/internal/partition"
	"oipsr/internal/simmat"
)

// modelSweeper is the trivially-correct model of the block sweep: the n x n
// sweep the Sweeper ran before it kept only the vertices with a non-empty
// in-set, serial, adding prev rows into the partial vector one row per
// pass. Every vertex has a row and a column, the rows and columns of empty
// in-sets are written as zero, and nothing is remapped.
type modelSweeper struct {
	g            *graph.Graph
	plan         *partition.Plan
	invDeg       []float64
	partial      []float64
	vals         []float64
	disableOuter bool
	stats        SweepStats
}

func newModelSweeper(g *graph.Graph, plan *partition.Plan, disableOuter bool) *modelSweeper {
	n := g.NumVertices()
	inv := make([]float64, n)
	for v := range inv {
		if d := g.InDegree(v); d > 0 {
			inv[v] = 1 / float64(d)
		}
	}
	return &modelSweeper{g: g, plan: plan, invDeg: inv, partial: make([]float64, n),
		vals: make([]float64, len(plan.TreeSteps)), disableOuter: disableOuter}
}

// sweep is the n x n Sweep: next must be all-zero, an identity, or the
// output of a previous sweep (only the non-empty rows and columns are
// emitted).
func (ms *modelSweeper) sweep(prev, next *simmat.Matrix, damp float64, pinDiag bool) {
	n := ms.g.NumVertices()
	for v := 0; v < n; v++ {
		if ms.invDeg[v] == 0 {
			clear(next.Row(v))
		}
	}
	for i, step := range ms.plan.ChainSteps {
		add, sub := ms.plan.ChainDiffs.At(i)
		if step.Parent < 0 {
			copy(ms.partial, prev.Row(int(add[0])))
			add = add[1:]
		}
		for _, x := range add {
			for y, v := range prev.Row(int(x)) {
				ms.partial[y] += v
			}
		}
		for _, x := range sub {
			for y, v := range prev.Row(int(x)) {
				ms.partial[y] -= v
			}
		}
		ms.stats.InnerAdds += int64(len(add)+len(sub)) * int64(n)
		ms.emit(next.Row(step.Vertex), step.Vertex, damp)
	}
	if pinDiag {
		for v := 0; v < n; v++ {
			next.Set(v, v, 1)
		}
	}
	next.MirrorUpper(1)
}

func (ms *modelSweeper) emit(row []float64, u int, damp float64) {
	scaleU := damp * ms.invDeg[u]
	if ms.disableOuter {
		for w := 0; w < ms.g.NumVertices(); w++ {
			in := ms.g.In(w)
			if len(in) == 0 {
				continue
			}
			sum := 0.0
			for _, j := range in {
				sum += ms.partial[j]
			}
			ms.stats.OuterAdds += int64(len(in) - 1)
			row[w] = scaleU * ms.invDeg[w] * sum
		}
		return
	}
	for i, s := range ms.plan.TreeSteps {
		var val float64
		if s.Parent >= 0 {
			val = ms.vals[s.Parent]
		}
		add, sub := ms.plan.TreeDiffs.At(i)
		for _, y := range add {
			val += ms.partial[y]
		}
		for _, y := range sub {
			val -= ms.partial[y]
		}
		ms.vals[i] = val
		row[s.Vertex] = scaleU * ms.invDeg[s.Vertex] * val
	}
	ms.stats.OuterAdds += int64(ms.plan.TreeWeight)
}

// modelRun is one engine configuration replayed sweep by sweep: OIP-SR
// (damp C, pinned diagonal), OIP-DSR (damp 1, free diagonal, T_0 = I and
// the e^-C accumulator) or the outer-sharing ablation of OIP-SR.
type modelRun struct {
	name         string
	damp         float64
	pinDiag      bool
	dsr          bool
	disableOuter bool
}

var modelRuns = []modelRun{
	{"oip-sr", 0.6, true, false, false},
	{"oip-dsr", 1, false, true, false},
	{"oip-sr-disable-outer", 0.6, true, false, true},
}

// checkBlockSweep runs k sweeps of r through the model and through a block
// Sweeper of the given pool size, and reports the first cell whose bits
// differ after any sweep — the iterate, and for OIP-DSR the accumulator —
// or a difference in either add counter.
func checkBlockSweep(g *graph.Graph, plan *partition.Plan, r modelRun, k, workers int) error {
	const c = 0.6
	n := g.NumVertices()
	ms := newModelSweeper(g, plan, r.disableOuter)
	sw := NewParallelSweeper(g, plan, r.disableOuter, workers)
	m := sw.Kept()

	mPrev, mNext := simmat.NewIdentity(n), simmat.New(n)
	bPrev, bNext := simmat.NewIdentity(m), simmat.New(m)
	expC := math.Exp(-c)
	mAcc, bAcc := simmat.New(n), simmat.New(m)
	for i := 0; i < n; i++ {
		mAcc.Set(i, i, expC)
	}
	for i := 0; i < m; i++ {
		bAcc.Set(i, i, expC)
	}
	prevDiag, coeff := 1.0, expC
	for step := 0; step < k; step++ {
		ms.sweep(mPrev, mNext, r.damp, r.pinDiag)
		sw.Sweep(bPrev, bNext, prevDiag, r.damp, r.pinDiag)
		if !r.pinDiag {
			prevDiag = 0
		}
		if err := sameCells(mNext, simmat.Expand(sw.Slots(), bNext, prevDiag)); err != nil {
			return fmt.Errorf("%s sweep %d: %w", r.name, step+1, err)
		}
		if r.dsr {
			coeff *= c / float64(step+1)
			for i, v := range mNext.Data() {
				mAcc.Data()[i] += float64(coeff * v)
			}
			for i, v := range bNext.Data() {
				bAcc.Data()[i] += float64(coeff * v)
			}
			if err := sameCells(mAcc, simmat.Expand(sw.Slots(), bAcc, expC)); err != nil {
				return fmt.Errorf("%s accumulator after sweep %d: %w", r.name, step+1, err)
			}
		}
		mPrev, mNext = mNext, mPrev
		bPrev, bNext = bNext, bPrev
	}
	if got := sw.Stats(); got != ms.stats {
		return fmt.Errorf("%s: add counts %+v, model %+v", r.name, got, ms.stats)
	}
	return nil
}

// sameCells compares every cell of got with want by math.Float64bits, so a
// -0 where the model has +0 is a difference.
func sameCells(want *simmat.Matrix, got simmat.Source) error {
	n := want.N()
	if got.N() != n {
		return fmt.Errorf("dimension %d, model %d", got.N(), n)
	}
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		if err := got.RowInto(i, row); err != nil {
			return err
		}
		for j, v := range row {
			if w := want.At(i, j); math.Float64bits(v) != math.Float64bits(w) {
				return fmt.Errorf("cell (%d,%d) = %v (%#x), model %v (%#x)", i, j, v, math.Float64bits(v), w, math.Float64bits(w))
			}
		}
	}
	return nil
}

// TestBlockSweepMatchesModel: on the parallel workloads and the block
// goldens' hand-built graph, every configuration matches the n x n model
// bit for bit, at one, two and three workers: every per-worker tail group
// size of the four-row emit occurs, and so does a worker with fewer than
// four rows.
func TestBlockSweepMatchesModel(t *testing.T) {
	graphs := parallelWorkloads(t)
	graphs["empty-members"] = graph.MustFromEdges(8, [][2]int{
		{0, 2}, {1, 2}, {0, 3}, {1, 3}, {2, 4}, {0, 4}, {5, 5}, {5, 6}, {4, 6}, {1, 6},
	})
	for name, g := range graphs {
		plan, err := partition.BuildPlan(g, partition.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range modelRuns {
			for _, workers := range []int{1, 2, 3} {
				if err := checkBlockSweep(g, plan, r, 4, workers); err != nil {
					t.Errorf("%s workers=%d: %v", name, workers, err)
				}
			}
		}
	}
}

// decodeFuzzGraph reads a small graph from fuzz input: n = 1 + data[0]%14
// vertices, k = 1 + data[1]%4 sweeps, then up to 64 edges, one byte pair
// (u, v) each taken mod n. Self-loops and vertices without edges come out
// of the bytes as they fall; repeated edges collapse in the builder.
func decodeFuzzGraph(data []byte) (*graph.Graph, int) {
	n, k := 1, 1
	if len(data) > 0 {
		n = 1 + int(data[0])%14
	}
	if len(data) > 1 {
		k = 1 + int(data[1])%4
	}
	b := graph.NewBuilder(n, 0)
	b.EnsureVertices(n)
	for i := 2; i+1 < len(data) && i < 2+2*64; i += 2 {
		b.AddEdge(int(data[i])%n, int(data[i+1])%n)
	}
	return b.MustBuild(), k
}

// FuzzBlockSweep: on small random graphs — empty in-sets, self-loops,
// isolated vertices, identical in-sets — the block sweep of OIP-SR, OIP-DSR
// and the outer-sharing ablation, at one, two and three workers, equals the
// n x n model in every bit of every cell and in both add counters.
func FuzzBlockSweep(f *testing.F) {
	f.Add([]byte{13, 3, 0, 3, 1, 3, 0, 4, 1, 4, 7, 7, 7, 8, 2, 8, 6, 9, 8, 9, 0, 9})
	f.Add([]byte{6, 1})
	f.Add([]byte{4, 2, 1, 1, 1, 2, 0, 2, 2, 3, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, k := decodeFuzzGraph(data)
		plan, err := partition.BuildPlan(g, partition.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range modelRuns {
			for _, workers := range []int{1, 2, 3} {
				if err := checkBlockSweep(g, plan, r, k, workers); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
			}
		}
	})
}
