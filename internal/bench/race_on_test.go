//go:build race

package bench

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put into it on purpose, so a path that recycles its scratch through a pool
// allocates there and an allocs/op gate on it says nothing.
const raceEnabled = true
