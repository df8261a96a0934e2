//go:build !race

package modexp

import "testing"

// The race detector makes sync.Pool drop entries at random, so math/big's
// pooled division temporaries allocate per step under -race and the count
// below is only meaningful without it.

// TestFixedBaseExpAllocsConstant: the comb walk reuses its scratch, so an
// exponentiation allocates the same handful of buffers whether it walks
// 32 columns or 256 — a per-column allocation (Int.Mod's quotient) would
// show as hundreds here and as megabytes of garbage per protocol run.
func TestFixedBaseExpAllocsConstant(t *testing.T) {
	r := testRNG(9)
	m := oddModulus(r, 1024)
	base := randBig(r, 1024)
	allocs := func(bits int) float64 {
		tab := NewFixedBase(base, m, bits)
		exp := randBig(r, bits)
		exp.SetBit(exp, bits-1, 1)
		return testing.AllocsPerRun(10, func() { tab.Exp(exp) })
	}
	short, long := allocs(256), allocs(2048)
	if long > short+2 || long > 16 {
		t.Fatalf("allocations grow with the walk: %v at 32 columns, %v at 256", short, long)
	}
}
