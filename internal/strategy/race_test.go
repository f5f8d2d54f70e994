//go:build race

package strategy

// The race detector makes sync.Pool drop a share of the scratches put
// back, so allocation counts that rely on pooling do not hold under it.
func init() { raceEnabled = true }
