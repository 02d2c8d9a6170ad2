package simrankd

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"oipsr/simrank/query"
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
// updated after every answer that reranked (see answer in server.go: a
// single top-k is a batch of one, so both feed it through one call). Its
// unit is one source's own rerank time per candidate: a batch chunk sums
// its sources' times over its summed pool, so ranking them in parallel
// does not make reranks look cheaper than they are to a single request,
// and the decision multiplies the estimate back out by the sequential sum
// of the pools. Before the first completed rerank there is no estimate and
// nothing degrades — the first request simply tries, and either completes
// (seeding the model) or times out into a clean 503.

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

// since measures what the cost model learns from: each source's rerank. A
// variable, so that tests can swap in a deterministic clock.
var since = time.Since

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

// observeRerank folds one answer's completed exact reranks into the cost
// model: each source's own time (took) into the rerank histogram, and
// their sum over the answer's `candidates` pool entries into the
// per-candidate EWMA.
func (sv *serving) observeRerank(took []time.Duration, candidates int) {
	if candidates <= 0 {
		return
	}
	var sum time.Duration
	for _, d := range took {
		sv.rerankSeconds.Observe(d)
		sum += d
	}
	ewmaObserve(&sv.rerankNanosPerCand, sum.Nanoseconds()/int64(candidates))
}

// writeCostModelMetrics emits the live value the degrade decision is made
// from — the EWMA cell, 0 until its first observation — the rerank time
// distribution, and the process's rerank work counts beside it.
func (sv *serving) writeCostModelMetrics(w io.Writer) {
	fmt.Fprintf(w, "simrankd_rerank_nanos_per_candidate %d\n", sv.rerankNanosPerCand.Load())
	sv.rerankSeconds.WriteProm(w, "simrankd_rerank_seconds")
	work := query.RerankWorkTotal()
	fmt.Fprintf(w, "simrankd_rerank_interior_total %d\n", work.Interior)
	fmt.Fprintf(w, "simrankd_rerank_frontier_total %d\n", work.Frontier)
	fmt.Fprintf(w, "simrankd_rerank_memo_entries_total %d\n", work.MemoEntries)
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
