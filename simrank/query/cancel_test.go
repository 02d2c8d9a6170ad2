package query

import (
	"context"
	"errors"
	"testing"

	"oipsr/graph/gen"
	"oipsr/internal/sparserow"
)

// TestCancelledContextAbortsQueries: a cancelled context aborts every
// public query path with the context's error — the row and join-half
// queries on every range, the rest on the full one.
func TestCancelledContextAbortsQueries(t *testing.T) {
	g := gen.WebGraph(200, 6, 31)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	forEachRange(t, g.NumVertices(), func(t *testing.T, lo, hi int) {
		ix := buildRange(t, g, Options{Walks: 40, Seed: 3}, lo, hi, true)
		if _, err := ix.MultiSource(cancelled, []int{0, 1}, 2); !errors.Is(err, context.Canceled) {
			t.Errorf("MultiSource: err = %v, want context.Canceled", err)
		}
		if _, err := ix.SparseRows(cancelled, []int{0, 199}, 2); !errors.Is(err, context.Canceled) {
			t.Errorf("SparseRows: err = %v, want context.Canceled", err)
		}
		if _, err := ix.JoinCandidates(cancelled, 0.05, 0, 40, DefaultMaxCandidates, 2); !errors.Is(err, context.Canceled) {
			t.Errorf("JoinCandidates: err = %v, want context.Canceled", err)
		}
		if _, err := ix.ScorePairs(cancelled, []uint64{1<<32 | 2, 3<<32 | 150}, 2); !errors.Is(err, context.Canceled) {
			t.Errorf("ScorePairs: err = %v, want context.Canceled", err)
		}
		// Validation errors still win over cancellation checks that would
		// follow them — a bad request is a bad request even under a dead ctx.
		if _, err := ix.MultiSource(cancelled, []int{-1}, 1); err == nil || errors.Is(err, context.Canceled) {
			t.Errorf("MultiSource(-1): err = %v, want a validation error", err)
		}
		if hi-lo < 200 {
			return
		}
		if _, err := ix.SingleSource(cancelled, 1); !errors.Is(err, context.Canceled) {
			t.Errorf("SingleSource: err = %v, want context.Canceled", err)
		}
		if _, err := ix.TopK(cancelled, 1, 5, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("TopK: err = %v, want context.Canceled", err)
		}
		if _, err := ix.TopK(cancelled, 1, 5, &TopKOptions{Rerank: true}); !errors.Is(err, context.Canceled) {
			t.Errorf("TopK(rerank): err = %v, want context.Canceled", err)
		}
		if _, err := ix.TopKBatch(cancelled, []int{0, 1, 2}, 5, nil, 2); !errors.Is(err, context.Canceled) {
			t.Errorf("TopKBatch: err = %v, want context.Canceled", err)
		}
		if _, err := ix.Join(cancelled, 10, 0.05, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("Join: err = %v, want context.Canceled", err)
		}
		if _, err := ix.SingleSource(cancelled, -1); errors.Is(err, context.Canceled) {
			t.Errorf("SingleSource(-1): got context error, want validation error")
		}
	})
}

// TestRerankCancellationMidPool: cancelling between rerank candidates
// aborts TopK even though the sweep already finished. The rerank polls the
// context on every candidate (each exact pair score is expensive), so a
// context that dies after the sweep still stops the call.
func TestRerankCancellationMidPool(t *testing.T) {
	g := gen.CoauthorGraph(150, 5, 7)
	ix, err := BuildIndex(g, Options{Walks: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// cancelAfterN hands out a live context for the first n Err calls and a
	// cancelled one after — deterministic mid-call cancellation without
	// timing games.
	// The sweep over 150 targets polls only a handful of times (once per
	// 64-target chunk); a budget of 20 survives it and dies a few
	// candidates into the rerank pool.
	ctx := &cancelAfterN{Context: context.Background(), n: 20}
	_, err = ix.TopK(ctx, 0, 20, &TopKOptions{Rerank: true, Candidates: 120})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("TopK with mid-rerank cancel: err = %v, want context.Canceled", err)
	}
}

// TestRerankCancellationMidCandidate: one hub candidate is tens of
// thousands of memo stores, so the scorer polls the context from inside
// the recursion (every 2^12 stores) and unwinds. The pool here is a single
// candidate — two hubs of the serve-zipf graph — so the only poll between
// candidates is the first one, and a context that dies on a later poll
// died mid-candidate.
func TestRerankCancellationMidCandidate(t *testing.T) {
	g := gen.WebGraph(6000, 11, 1)
	const q, hub = 23, 33
	n := g.NumVertices()
	row := &sparserow.Row{}
	row.Append(hub, 1)
	opt := &TopKOptions{Rerank: true, Candidates: 1}

	const budget = 1 << 30
	live := &cancelAfterN{Context: context.Background(), n: budget}
	if _, err := RankSparse(live, g, 0.6, 13, n, row, q, 1, opt); err != nil {
		t.Fatal(err)
	}
	if polls := budget - live.n; polls < 4 {
		t.Fatalf("an uncancelled rerank of (%d,%d) polled %d times, want the one before the candidate and at least three inside it", q, hub, polls)
	}

	dying := &cancelAfterN{Context: context.Background(), n: 2}
	if _, err := RankSparse(dying, g, 0.6, 13, n, row, q, 1, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("RankSparse with a context dying mid-candidate: err = %v, want context.Canceled", err)
	}
	if dying.n != -1 {
		t.Fatalf("the context was polled %d more times after it reported cancellation", -1-dying.n)
	}

	// The unwinding is early: the scorer stops within one poll interval of
	// the cancellation instead of finishing the candidate.
	full := testScorer(t, g, 0.6, 13, 1e-5)
	if _, err := full.pair(q, hub); err != nil {
		t.Fatal(err)
	}
	cut, err := newExactScorer(&cancelAfterN{Context: context.Background(), n: 1}, g, 0.6, 13, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	defer cut.release()
	if _, err := cut.pair(q, hub); !errors.Is(err, context.Canceled) {
		t.Fatalf("pair under a context dying at the second poll: err = %v, want context.Canceled", err)
	}
	if cut.memo.live > 2*memoCancelEvery || cut.memo.live >= full.memo.live {
		t.Fatalf("cancelled at the second poll, yet the memo reached %d of %d entries", cut.memo.live, full.memo.live)
	}
}

type cancelAfterN struct {
	context.Context
	n int
}

func (c *cancelAfterN) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}
