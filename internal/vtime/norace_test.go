//go:build !race

package vtime

const raceDetector = false
