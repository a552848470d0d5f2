//go:build race

package network

func init() { raceEnabled = true }
