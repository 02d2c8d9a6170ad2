// Package partition implements the in-neighbor-set machinery of Section III:
// transition costs between sets (Eq. 7), the candidate cost graph of
// DMST-Reduce, and the resulting partial-sums sharing plan (the partitions
// of Eq. 8 / Fig. 3a organized as a tree with per-edge symmetric
// differences).
//
// All set operations work on strictly sorted int slices, which is the form
// the graph package hands out in-neighbor lists in.
package partition

// ScratchCost returns the additions needed to compute Partial_B from
// nothing: |B| - 1, or 0 for empty or singleton sets. This is the weight of
// the root edge in the DMST-Reduce cost graph.
func ScratchCost(b []int) int {
	if len(b) <= 1 {
		return 0
	}
	return len(b) - 1
}
