//go:build !race

package sharded

const raceEnabled = false
