//go:build race

package waitring

// raceEnabled scales stress-test sizes down under the race detector, whose
// scheduler serializes the trylock-retry hot paths by orders of magnitude.
const raceEnabled = true
