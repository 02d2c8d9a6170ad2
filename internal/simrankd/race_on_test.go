//go:build race

package simrankd

// raceEnabled reports that the race detector is on. Under it sync.Pool
// discards a quarter of what it is handed, so byte ceilings on pooled paths
// measure the detector, not the code.
const raceEnabled = true
