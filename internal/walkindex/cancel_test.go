package walkindex

import (
	"context"
	"errors"
	"testing"
	"time"

	"oipsr/graph/gen"
	"oipsr/internal/sparserow"
)

// TestQueriesHonorCancellation: a cancelled context aborts every query
// path with the context's error instead of completing.
func TestQueriesHonorCancellation(t *testing.T) {
	g := gen.WebGraph(300, 6, 17)
	ix, err := buildFull(g, Options{Walks: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	for _, workers := range []int{1, 3} {
		for _, sources := range [][]int{{5}, {1, 2, 3}} {
			if _, err := ix.SparseRows(cancelled, nil, sources, workers); !errors.Is(err, context.Canceled) {
				t.Errorf("SparseRows(%v, workers=%d) on cancelled ctx: err = %v, want context.Canceled", sources, workers, err)
			}
		}
		if _, err := ix.Join(cancelled, nil, 10, 0.05, 1<<20, workers); !errors.Is(err, context.Canceled) {
			t.Errorf("Join(workers=%d) on cancelled ctx: err = %v, want context.Canceled", workers, err)
		}
	}

	// An expired deadline surfaces as DeadlineExceeded, the error servers
	// map to their timeout status.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := ix.SparseRows(expired, nil, []int{0}, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("SparseRows on expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCancellationMidSweep: cancelling while a batch is in flight makes it
// return promptly with the context's error (the per-fingerprint polls).
func TestCancellationMidSweep(t *testing.T) {
	g := gen.WebGraph(400, 8, 23)
	ix, err := buildFull(g, Options{Walks: 200, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		for {
			rows, err := ix.SparseRows(ctx, nil, []int{0, 50, 100, 150}, 2)
			if err != nil {
				done <- err
				return
			}
			sparserow.Release(rows...)
		}
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-sweep cancel returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sweep did not notice cancellation within 5s")
	}
}

// countingCtx counts Err polls and reports cancellation from the
// cancelAt-th poll on.
type countingCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *countingCtx) Err() error {
	c.polls++
	if c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestForestPollsEveryFingerprint: the order path has no per-target chunk
// to poll at, so forestRow polls the context once per fingerprint — a
// cancelled request stops within one fingerprint's walk, wherever the
// cancel lands, and leaves the row it was filling untouched.
func TestForestPollsEveryFingerprint(t *testing.T) {
	g := gen.WebGraph(300, 6, 17)
	const walks = 50
	ix, err := buildFull(g, Options{Walks: walks, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	row := &sparserow.Row{}
	ctx := &countingCtx{Context: context.Background(), cancelAt: walks + 1}
	if err := ix.forestRow(ctx, ix.store.row(5), 5, row); err != nil || ctx.polls != walks || row.Len() == 0 {
		t.Fatalf("uncancelled forestRow: err %v after %d polls and %d entries, want nil after %d", err, ctx.polls, row.Len(), walks)
	}
	for _, at := range []int{1, walks / 2, walks} {
		row.Reset()
		ctx := &countingCtx{Context: context.Background(), cancelAt: at}
		if err := ix.forestRow(ctx, ix.store.row(5), 5, row); !errors.Is(err, context.Canceled) || ctx.polls != at || row.Len() != 0 {
			t.Fatalf("cancel at poll %d: err %v after %d polls, %d entries appended", at, err, ctx.polls, row.Len())
		}
		ctx = &countingCtx{Context: context.Background(), cancelAt: at}
		if rows, err := ix.SparseRows(ctx, nil, []int{1, 2, 3}, 1); !errors.Is(err, context.Canceled) || rows != nil {
			t.Fatalf("SparseRows cancel at poll %d: rows %v, err %v", at, rows != nil, err)
		}
	}
}
