package query

import (
	"context"
	"fmt"

	"oipsr/internal/walkindex"
)

// JoinPair is one result pair of a similarity join, canonical A < B.
type JoinPair struct {
	A     int     `json:"a"`
	B     int     `json:"b"`
	Score float64 `json:"score"`
}

// ErrTooDense is returned by Join when the threshold admits more candidate
// pairs than JoinOptions.MaxCandidates — the guard that keeps an
// all-pairs-shaped request from exhausting memory. Raise the threshold or
// the cap.
var ErrTooDense = walkindex.ErrTooDense

// JoinOptions tune a Join call. The zero value (or a nil pointer) means a
// candidate cap of DefaultMaxCandidates and a serial run.
type JoinOptions struct {
	// MaxCandidates caps the number of co-located vertex pairs the join
	// enumerates before scoring; exceeding it returns ErrTooDense. 0 means
	// DefaultMaxCandidates.
	MaxCandidates int
	// Workers sets the worker-pool size (1 = serial, below 1 = all CPUs).
	// The result is bit-identical for every worker count.
	Workers int
}

// DefaultMaxCandidates is the JoinOptions.MaxCandidates default: two
// million candidate pairs (~32 MB of enumeration state).
const DefaultMaxCandidates = 1 << 21

// Join returns the k highest-scoring vertex pairs (a < b) with estimated
// SimRank at least threshold, in decreasing score order with ties broken
// by (a, b) — the all-pairs top-k similarity join, served from the walk
// index without materializing the Theta(n^2) score matrix.
//
// Scores are the index estimates (bit-identical to the SingleSource /
// MultiSource entries for the same pairs) and the result is exhaustive
// under the contribution-weight prune: a pair whose walkers first co-locate
// at step t can score at most C^(t+1), so only co-locations at the depth
// the threshold allows are enumerated, then scored exactly. A threshold of
// 0 means "every pair with a positive estimate" (pairs whose walks never
// meet score exactly 0 and never join). Thresholds above C return an empty
// result immediately: no distinct pair can score above C. Cancelling ctx
// abandons the join at the next chunk boundary and returns the context's
// error.
func (ix *Index) Join(ctx context.Context, k int, threshold float64, opt *JoinOptions) ([]JoinPair, error) {
	if opt == nil {
		opt = &JoinOptions{}
	}
	maxCand := opt.MaxCandidates
	if maxCand == 0 {
		maxCand = DefaultMaxCandidates
	}
	if maxCand < 1 {
		return nil, fmt.Errorf("query: join candidate cap %d < 1", maxCand)
	}
	pairs, err := ix.wi.Join(ctx, nil, k, threshold, maxCand, opt.Workers)
	if err != nil {
		return nil, err
	}
	out := make([]JoinPair, len(pairs))
	for i, p := range pairs {
		out[i] = JoinPair{A: p.A, B: p.B, Score: p.Score}
	}
	return out, nil
}
