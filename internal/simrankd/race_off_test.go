//go:build !race

package simrankd

const raceEnabled = false
