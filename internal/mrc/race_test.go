//go:build race

package mrc

func init() { raceEnabled = true }
