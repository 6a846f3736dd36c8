//go:build race

package vtime

// raceDetector: the race detector's instrumentation allocates, so the
// allocation counts are not the program's.
const raceDetector = true
