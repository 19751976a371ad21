//go:build !race

// Package raceflag tells tests whether the race detector is on. Under
// -race, sync.Pool drops a share of what is put back, so allocation counts
// of pooled paths stop being deterministic; the zero-alloc assertions skip.
package raceflag

// Enabled reports that the binary was built with -race.
const Enabled = false
