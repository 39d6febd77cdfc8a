//go:build race

package core

// raceEnabled reports whether the race detector is active. The allocation
// assertions are skipped under -race: the race runtime makes sync.Pool
// intentionally lossy and inflates every allocation, so byte-count bounds
// measure the instrumentation, not the code.
const raceEnabled = true
