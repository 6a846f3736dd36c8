//go:build !race

package dlb

const raceDetector = false
