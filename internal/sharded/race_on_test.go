//go:build race

package sharded

// raceEnabled is true under the race detector, whose sync.Pool drops Puts
// at random: a test that needs pooled contexts to persist cannot run.
const raceEnabled = true
