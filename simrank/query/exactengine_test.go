package query

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/naive"
)

// TestExactSingleSourceMatchesConvergedNaive: the exact query path must
// agree with a deeply converged Jeh-Widom iteration — the walk index's
// estimates play no part in it.
func TestExactSingleSourceMatchesConvergedNaive(t *testing.T) {
	g := gen.WebGraph(80, 6, 5)
	ix, err := BuildIndex(g, Options{Walks: 60, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := naive.ComputeWorkers(g, ix.C(), 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, ix.N())
	for _, q := range []int{0, 17, 79} {
		row, err := ix.ExactSingleSource(context.Background(), q, buf)
		if err != nil {
			t.Fatal(err)
		}
		refRow := ref.Row(q)
		for j, v := range row {
			if d := math.Abs(v - refRow[j]); d > 1e-8 {
				t.Fatalf("q=%d: s(%d) = %g vs converged naive %g", q, j, v, refRow[j])
			}
		}
	}
	if st, ok := ix.ExactStats(); !ok || st.Residual > ExactTol {
		t.Fatalf("ExactStats = %+v, %t", st, ok)
	}
}

// TestExactSingleSourceValidation pins the error surface: the same range
// and buffer contracts as SingleSourceInto, plus the attached-graph
// requirement a loaded-but-unattached index violates.
func TestExactSingleSourceValidation(t *testing.T) {
	g := gen.WebGraph(40, 5, 3)
	ix, err := BuildIndex(g, Options{Walks: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := ix.ExactSingleSource(ctx, -1, nil); err == nil {
		t.Error("q=-1: expected range error")
	}
	if _, err := ix.ExactSingleSource(ctx, 40, nil); err == nil {
		t.Error("q=40: expected range error")
	}
	if _, err := ix.ExactSingleSource(ctx, 0, make([]float64, 3)); err == nil {
		t.Error("short buffer: expected length error")
	}

	path := filepath.Join(t.TempDir(), "walks.idx")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.ExactSingleSource(ctx, 0, nil); err == nil {
		t.Error("unattached index: expected graph-required error")
	}
	if err := loaded.AttachGraph(g); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.ExactSingleSource(ctx, 0, nil); err != nil {
		t.Errorf("after AttachGraph: %v", err)
	}
}

// TestExactSolverInvalidatedByEdits: an effective edit batch bumps the
// generation and must force a fresh diagonal solve whose answers track the
// edited graph, while a no-op batch keeps the cached solver.
func TestExactSolverInvalidatedByEdits(t *testing.T) {
	g := gen.WebGraph(60, 5, 9)
	ix, err := BuildIndex(g, Options{Walks: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := ix.PrepareExact(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.ExactStats(); !ok {
		t.Fatal("PrepareExact did not build the solver")
	}

	// An effective edit: the solver must be stale until the next query.
	edits := []graph.Edit{{Op: graph.EditAdd, U: 1, V: 55}}
	if _, err := ix.ApplyEdits(edits, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.ExactStats(); ok {
		t.Fatal("solver still reported fresh after an effective edit")
	}
	row, err := ix.ExactSingleSource(ctx, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := naive.ComputeWorkers(ix.Graph(), ix.C(), 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range row {
		if d := math.Abs(v - ref.Row(1)[j]); d > 1e-8 {
			t.Fatalf("post-edit s(1,%d) = %g vs converged naive on edited graph %g", j, v, ref.Row(1)[j])
		}
	}

	// A no-op batch (re-adding an existing edge) keeps generation and
	// solver alike.
	if _, err := ix.ApplyEdits(edits, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.ExactStats(); !ok {
		t.Fatal("no-op batch invalidated the solver")
	}
}

// heldContext is a live context whose first Err call blocks until release
// is closed, after closing entered: handed to PrepareExact it holds the
// diagonal solve at its first cancellation poll, as a slow solve would.
type heldContext struct {
	context.Context
	once             sync.Once
	entered, release chan struct{}
}

func (c *heldContext) Err() error {
	c.once.Do(func() {
		close(c.entered)
		<-c.release
	})
	return c.Context.Err()
}

// TestExactWaiterKeepsItsDeadline: while one call runs the lazy diagonal
// solve, an ExactSingleSource whose deadline is 20 ms away returns
// context.DeadlineExceeded within about that deadline instead of queueing
// behind the whole solve, and ExactStats answers at once (no solver yet).
// When the held solve finishes, the next call is served from it.
func TestExactWaiterKeepsItsDeadline(t *testing.T) {
	ix, err := BuildIndex(gen.WebGraph(60, 5, 9), Options{Walks: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	held := &heldContext{Context: context.Background(), entered: make(chan struct{}), release: make(chan struct{})}
	built := make(chan error, 1)
	go func() { built <- ix.PrepareExact(held, 1) }()
	<-held.entered
	released := false
	release := func() {
		if !released {
			released = true
			close(held.release)
			if err := <-built; err != nil {
				t.Errorf("held solve: %v", err)
			}
		}
	}
	defer release()

	const deadline, slack = 20 * time.Millisecond, 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	t0 := time.Now()
	done := make(chan error, 1)
	go func() { _, err := ix.ExactSingleSource(ctx, 4, nil); done <- err }()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("ExactSingleSource behind a running solve: err = %v, want context.DeadlineExceeded", err)
		} else if el := time.Since(t0); el > deadline+slack/2 {
			t.Errorf("ExactSingleSource returned %v after its %v deadline", el, deadline)
		}
	case <-time.After(slack):
		t.Errorf("ExactSingleSource with a %v deadline still waits for the running solve after %v", deadline, slack)
	}

	stats := make(chan bool, 1)
	go func() { _, ok := ix.ExactStats(); stats <- ok }()
	select {
	case ok := <-stats:
		if ok {
			t.Error("ExactStats reports a solver while the first solve is still running")
		}
	case <-time.After(slack):
		t.Error("ExactStats is waiting for the running solve")
	}

	release()
	if _, ok := ix.ExactStats(); !ok {
		t.Fatal("the held solve finished but ExactStats reports no solver")
	}
	if _, err := ix.ExactSingleSource(context.Background(), 4, nil); err != nil {
		t.Fatal(err)
	}
}
