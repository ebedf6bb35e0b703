//go:build race

package server

// raceEnabled is true under the race detector, which allocates on its
// own: allocation counts mean nothing there.
const raceEnabled = true
