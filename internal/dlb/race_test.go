//go:build race

package dlb

// raceDetector: the race detector's instrumentation allocates, so the
// allocation counts are not the program's.
const raceDetector = true
