//go:build race

package client_test

// raceEnabled reports whether this test binary was built with the race
// detector. Under race, sync.Pool.Put randomly drops items, so allocation
// counts on pooled paths are inflated and noisy; alloc pins consult this
// to skip. CI runs the pins in a separate non-race pass.
const raceEnabled = true
