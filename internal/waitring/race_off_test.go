//go:build !race

package waitring

const raceEnabled = false
