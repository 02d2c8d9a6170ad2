// Package query answers single-source and top-k SimRank queries from a
// precomputed walk index, without ever materializing the Theta(n^2)
// all-pairs matrix the batch engines in package simrank produce.
//
// # Serving model
//
// The batch engines (OIP-SR and friends) compute s(a, b) for every pair at
// once: the right tool for offline analytics, and hopeless for a service
// that must answer "who is most similar to q?" per request — n^2 state for
// a million-vertex graph is terabytes. This package instead follows the
// index-then-query design of SLING (Tian & Xiao) and ProbeSim (Liu et
// al.): precompute a compact per-vertex index once, then answer each query
// by scanning only the query vertex's share of it.
//
// The index here stores R coupled reverse random walks of horizon K per
// vertex (the Fogaras-Racz first-meeting estimator; the batch monte-carlo
// engine is this index's SingleSource on every vertex). It keeps each
// walk's live prefix only, plus a per-fingerprint coalescence order and its
// inverse, 10*R bytes a vertex: on serve-zipf's graph (R = 100) about 243 B
// of walks and 1000 B of order per vertex — linear in n, independent of
// edge density. A single-source query finds the source in each
// fingerprint's order by its rank and walks outwards while neighbours
// still meet, so its cost is proportional to the answer, not to n*R*K. Builds are
// deterministic:
// edge choices are pure hashes of (seed, fingerprint, step, vertex), so
// the same graph, options, and seed produce a bit-identical index at any
// worker count, and a saved index reloads into bit-identical query
// results. The same hashes make the coalescence order a function of the
// graph: it is sorted from the graph, never from the stored walks, so an
// index file holds the walks only and a loaded index answers once
// AttachGraph has given it its graph.
//
// # Accuracy trade-off
//
// Estimates carry Monte Carlo error O(1/sqrt(R)) plus the small
// coalescence bias of coupled walks, where the batch engines are exact to
// their iteration truncation. Two mitigations are built in:
//
//   - Raise Walks (R). Error shrinks as 1/sqrt(R); index size and query
//     time grow linearly.
//   - TopKOptions.Rerank. The index proposes a candidate pool by estimated
//     score; each candidate pair is then re-scored exactly with a pruned
//     partial-sums iteration (memoized truncated SimRank recursion,
//     descending only while a branch's maximum possible contribution to
//     the root score stays above a prune threshold) and the pool is
//     re-ranked by the exact scores. This buys near-exact ordering within
//     the pool at a per-query cost that depends on in-degree, not on n.
//
// # Batched queries and similarity joins
//
// Serving traffic rarely asks one question at a time. SparseRows answers a
// whole batch of sources, in parallel over sources, each at the cost of its
// own answer; MultiSource and TopKBatch are its dense and ranked forms, and
// every row and ranking stays bit-identical to the corresponding
// independent SingleSource/TopK call, for every worker count. Every answer
// is a sparse row (the source's non-zero scores) until the last step: the
// rankings rank it, and the dense calls write it out. Join runs
// the all-pairs top-k similarity join ("which pairs anywhere score at
// least theta?"): only pairs whose walkers co-locate within the depth the
// threshold allows are enumerated (a pair first co-locating at step t
// scores at most C^(t+1) — the contribution-weight prune), then scored
// exactly, so the join never materializes n^2 state either. cmd/simrankd
// serves these as POST /v1/batch (NDJSON, one line per source, items fail
// independently) and POST /v1/join.
//
// # Dynamic updates
//
// The graph need not be frozen: ApplyEdits applies a batch of edge
// adds/removes and repairs the index incrementally instead of rebuilding.
// The hash-driven coupling makes the repair local — a walk's path can only
// change from the first time it stands on a vertex whose in-neighbor list
// changed — so only those suffixes are recomputed. The affected walks are
// found by running the coupling backwards from the changed vertices on the
// edited graph, so no state beyond the walks is kept for updates. The
// repaired index is bit-identical to a fresh BuildIndex on the edited
// graph, so incremental serving never drifts from a restart. Each update bumps Generation(); cache layers fold the
// generation into their keys to invalidate atomically. Updates mutate the
// index and must be serialized against queries — cmd/simrankd does this
// with an RWMutex and exposes the whole path as POST /v1/edges.
//
// # One handle, any vertex range
//
// An Index is the handle over the walks of one contiguous vertex range
// [Lo, Hi). BuildIndex and the loaders produce [0, n), the single-node
// index everything above describes. Package oipsr/simrank/shard splits the
// rows — not the graph — into ranges and hands each back as the same Index:
// walks are pure hashes, so a range recomputes any walk it does not store
// from the attached graph. MultiSource and SparseRows return the owned
// slice of each row for arbitrary sources; Pair and ApplyEdits behave as
// on the full range; what needs all n rows in one place (SingleSource,
// TopK, TopKBatch, Join, Save) is refused with one error. simrankd's router composes score rows from a fleet and runs the
// join itself, over its own copy of the graph.
//
// Use the batch engines for all-pairs analytics, convergence studies, or
// exact scores; use this package when queries arrive one vertex at a
// time and latency or memory rules out n^2 work — the simrankd server
// (cmd/simrankd) is a ready-made HTTP front end. This package has no exact
// single-source path: an exact converged row is an offline computation,
// simrank.Compute with the Linearized engine (the simrank CLI's -algo
// linearized -query q), which solves the diagonal correction once per graph
// and needs no n^2 state either.
package query
