//go:build !race

package walk

const raceEnabled = false
