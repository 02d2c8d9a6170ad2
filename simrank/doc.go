// Package simrank is the public API of this repository: all-pairs SimRank
// computation on directed graphs with the optimizations of Yu, Lin and
// Zhang, "Towards Efficient SimRank Computation on Large Networks"
// (ICDE 2013).
//
// # Background
//
// SimRank (Jeh & Widom, KDD 2002) scores the structural similarity of two
// vertices by the recursion "two vertices are similar if their in-neighbors
// are similar", with every vertex maximally similar to itself:
//
//	s(a,a) = 1
//	s(a,b) = C/(|I(a)||I(b)|) * sum over (i,j) in I(a) x I(b) of s(i,j)
//
// where C in (0,1) is a damping factor and I(v) the in-neighbor set of v.
//
// This package implements seven engines, each named by an Algorithm
// (Algorithms lists them) and run by Compute:
//
//   - OIPSR (default): the paper's primary contribution. Partial sums over
//     in-neighbor sets are shared across sets via a minimum-spanning-tree
//     plan over set-transition costs, both when building the sums ("inner
//     sharing") and when consuming them ("outer sharing"), cutting the
//     per-iteration additions from O(d n^2) to O(d' n^2), d' <= d.
//   - OIPDSR: the paper's second contribution. A differential SimRank model
//     defined by a matrix ODE whose solution is an exponential — rather
//     than geometric — series in the transition matrix. It converges in
//     exponentially fewer iterations (e.g. 7 instead of 41 at C=0.8,
//     eps=1e-4) while closely preserving the relative order of scores, and
//     it reuses the same OIP sharing machinery.
//   - PsumSR: Lizorkin et al.'s partial-sums memoization (the prior state
//     of the art the paper compares against), with optional
//     threshold-sieved similarities.
//   - Naive: the original Jeh-Widom O(K d^2 n^2) iteration, the semantic
//     ground truth.
//   - MtxSR: Li et al.'s SVD low-rank approximation (matrix-form baseline).
//   - MonteCarlo: the Fogaras-Racz coupled-walk estimator, each row a walk
//     index's single-source answer (package simrank/query).
//   - Linearized: Maehara et al.'s linearization, exact single-source and
//     single-pair answers with no n^2 state.
//
// # Quick start
//
//	g := graph.MustFromEdges(3, [][2]int{{0, 1}, {0, 2}})
//	scores, stats, err := simrank.Compute(g, simrank.Options{C: 0.6, Eps: 1e-3})
//	if err != nil { ... }
//	fmt.Println(scores.Score(1, 2), stats.Iterations)
//
// Build graphs with the graph package (or graph/gio loaders and graph/gen
// generators). By default every engine returns dense all-pairs scores, so
// memory is Theta(n^2) * 8 bytes per matrix; budget accordingly (n = 10,000
// needs ~1.6 GB for the two iteration buffers).
//
// # Memory-bounded runs
//
// When two dense matrices do not fit, Options.BlockSize > 0 selects the
// tiled backend of the paper's engines, OIPSR and OIPDSR (the baselines
// stay dense): the score matrix becomes a grid of B x B tiles with
// symmetric upper-triangular storage, a working set bounded by
// Options.MaxMemoryBytes, and spill-to-disk for evicted tiles under
// Options.SpillDir. Scores are bit-identical to the dense
// backend for every block size and worker count; call Scores.Close on
// tiled results to release resident tiles and spill files. See the README
// section "Memory-bounded runs" for guidance on picking B.
//
// # Parallelism
//
// Options.Workers sets the worker-pool size of the iteration phase (0 = all
// CPUs, 1 = serial). The OIP engines parallelize across the independent
// chains of the DMST-Reduce plan, the baselines across rows; in every case
// work is partitioned so that scores and operation counts are bit-identical
// for every worker count. See the internal/core package comment for the
// concurrency model and determinism argument.
package simrank
