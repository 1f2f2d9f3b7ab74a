//go:build race

package run

const raceEnabled = true
