//go:build race

package httpapi

// The race detector drops sync.Pool items at random, encoding/json's
// encoder state among them, so allocation bounds hold only without it.
func init() { raceEnabled = true }
