package simrankd

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Deadline-aware degradation. An exact rerank multiplies a top-k request's
// cost by orders of magnitude (the pruned partial-sums recursion per
// candidate vs one pass over a precomputed row). Under a deadline that the
// rerank would blow, the server can still answer well: the raw walk
// estimates are already computed — the rerank only re-scores their top
// pool — so serving them is free, and the paper's own accuracy story says
// they are good estimates, not garbage. Degraded responses carry
// "degraded":true and the X-Simrank-Degraded header, are never cached, and
// are bit-identical to what rerank=0 would have returned.
//
// The cost model is an EWMA of measured per-candidate rerank nanoseconds,
// updated after every exact rerank this process serves (single top-k and
// batch chunks both feed it). Before the first completed rerank there is
// no estimate and nothing degrades — the first request simply tries, and
// either completes (seeding the model) or times out into a clean 503.
//
// ?engine=linearized requests degrade by the same rules through a second
// EWMA cell: when the remaining deadline cannot afford an exact
// single-source solve (whole-query cost, observed after every steady-state
// solve), the request is served the walk estimates instead — marked
// degraded, never cached — exactly like a rerank the budget cannot afford.

// rerankSafety is the headroom multiplier on the estimated rerank cost: a
// rerank is only attempted when at least twice its EWMA estimate remains,
// because blowing the deadline mid-rerank wastes everything while
// degrading a borderline request costs one field.
const rerankSafety = 2

// rerankEWMAWeight is the denominator of the EWMA step: each observation
// moves the estimate by 1/8 of the difference — smooth enough to ride out
// one anomalous request, fast enough to track a cache gone cold within a
// dozen requests.
const rerankEWMAWeight = 8

// ewmaObserve folds one observation (nanoseconds) into cell: the first
// observation seeds the estimate outright, later ones move it by
// 1/rerankEWMAWeight of the difference.
func ewmaObserve(cell *atomic.Uint64, obs int64) {
	if obs < 1 {
		obs = 1
	}
	for {
		old := cell.Load()
		if old == 0 {
			// First observation seeds the estimate outright.
			if cell.CompareAndSwap(0, uint64(obs)) {
				return
			}
			continue
		}
		step := (obs - int64(old)) / rerankEWMAWeight
		if step == 0 && obs != int64(old) {
			// Small differences must still move the estimate, or it
			// freezes near the first observation.
			if obs > int64(old) {
				step = 1
			} else {
				step = -1
			}
		}
		if cell.CompareAndSwap(old, uint64(int64(old)+step)) {
			return
		}
	}
}

// observeRerank folds one completed exact rerank of `candidates` pool
// entries into the per-candidate cost EWMA.
func (sv *serving) observeRerank(elapsed time.Duration, candidates int) {
	if candidates <= 0 {
		return
	}
	sv.rerankSeconds.Observe(elapsed)
	ewmaObserve(&sv.rerankNanosPerCand, elapsed.Nanoseconds()/int64(candidates))
}

// observeExact folds one completed exact (linearized) single-source solve
// into the whole-query cost EWMA. Callers skip the call that also paid the
// one-time diagonal solve, so the model tracks steady-state query cost.
func (sv *serving) observeExact(elapsed time.Duration) {
	ewmaObserve(&sv.exactNanos, elapsed.Nanoseconds())
}

// writeCostModelMetrics emits the live values the degrade decisions are
// made from — the two EWMA cells, 0 until their first observation — and the
// rerank time distribution.
func (sv *serving) writeCostModelMetrics(w io.Writer) {
	fmt.Fprintf(w, "simrankd_rerank_nanos_per_candidate %d\n", sv.rerankNanosPerCand.Load())
	fmt.Fprintf(w, "simrankd_exact_solve_nanos %d\n", sv.exactNanos.Load())
	sv.rerankSeconds.WriteProm(w, "simrankd_rerank_seconds")
}

// shouldDegrade reports whether an exact rerank of `candidates` pool
// entries no longer fits the request's remaining deadline budget. No
// deadline or no cost estimate yet means never degrade.
func (sv *serving) shouldDegrade(ctx context.Context, candidates int) bool {
	deadline, ok := ctx.Deadline()
	if !ok || candidates <= 0 {
		return false
	}
	per := sv.rerankNanosPerCand.Load()
	if per == 0 {
		return false
	}
	need := time.Duration(per*uint64(candidates)) * rerankSafety
	return time.Until(deadline) < need
}

// shouldDegradeExact reports whether an exact (linearized) single-source
// solve no longer fits the request's remaining deadline budget. As with
// shouldDegrade, no deadline or no cost estimate yet means never degrade —
// the first exact query simply tries, and either completes (seeding the
// model) or times out into a clean 503.
func (sv *serving) shouldDegradeExact(ctx context.Context) bool {
	deadline, ok := ctx.Deadline()
	if !ok {
		return false
	}
	per := sv.exactNanos.Load()
	if per == 0 {
		return false
	}
	need := time.Duration(per) * rerankSafety
	return time.Until(deadline) < need
}
