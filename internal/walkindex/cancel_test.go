package walkindex

import (
	"context"
	"errors"
	"testing"
	"time"

	"oipsr/graph/gen"
)

// TestQueriesHonorCancellation: a cancelled context aborts every query
// path with the context's error instead of completing the sweep.
func TestQueriesHonorCancellation(t *testing.T) {
	g := gen.WebGraph(300, 6, 17)
	ix, err := buildFull(g, Options{Walks: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := ix.SingleSource(cancelled, 5, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("SingleSource on cancelled ctx: err = %v, want context.Canceled", err)
	}
	for _, workers := range []int{1, 3} {
		if _, err := ix.MultiSource(cancelled, nil, []int{1, 2, 3}, workers); !errors.Is(err, context.Canceled) {
			t.Errorf("MultiSource(workers=%d) on cancelled ctx: err = %v, want context.Canceled", workers, err)
		}
		if _, err := ix.Join(cancelled, nil, 10, 0.05, 1<<20, workers); !errors.Is(err, context.Canceled) {
			t.Errorf("Join(workers=%d) on cancelled ctx: err = %v, want context.Canceled", workers, err)
		}
	}

	// An expired deadline surfaces as DeadlineExceeded, the error servers
	// map to their timeout status.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := ix.SingleSource(expired, 0, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("SingleSource on expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCancellationMidSweep: cancelling while a sweep is in flight makes it
// return promptly with the context's error (the chunk-boundary polls).
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
			if _, err := ix.MultiSource(ctx, nil, []int{0, 50, 100, 150}, 2); err != nil {
				done <- err
				return
			}
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
