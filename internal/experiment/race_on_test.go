//go:build race

package experiment

// raceEnabled skips the reproducibility checks under the race detector,
// whose sync.Pool drops pooled contexts at random.
const raceEnabled = true
