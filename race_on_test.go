//go:build race

package eol

func init() { raceDetector = true }
