package sharing

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"yosompc/internal/field"
)

func secretsOf(vs ...uint64) []field.Element {
	out := make([]field.Element, len(vs))
	for i, v := range vs {
		out[i] = field.New(v)
	}
	return out
}

func TestStandardShareReconstruct(t *testing.T) {
	secret := field.New(42)
	const d, n = 3, 10
	shares, err := ShareStandard(secret, d, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != n {
		t.Fatalf("got %d shares", len(shares))
	}
	got, err := ReconstructStandard(shares[:d+1], d)
	if err != nil {
		t.Fatal(err)
	}
	if got != secret {
		t.Errorf("reconstructed %v, want %v", got, secret)
	}
}

func TestStandardReconstructAnySubset(t *testing.T) {
	secret := field.New(777)
	const d, n = 2, 7
	shares, err := ShareStandard(secret, d, n)
	if err != nil {
		t.Fatal(err)
	}
	subsets := [][]int{{0, 1, 2}, {4, 5, 6}, {0, 3, 6}, {1, 2, 5}}
	for _, idx := range subsets {
		sub := make([]Share, len(idx))
		for i, j := range idx {
			sub[i] = shares[j]
		}
		got, err := ReconstructStandard(sub, d)
		if err != nil {
			t.Fatal(err)
		}
		if got != secret {
			t.Errorf("subset %v reconstructed %v, want %v", idx, got, secret)
		}
	}
}

func TestPackedShareReconstruct(t *testing.T) {
	secrets := secretsOf(1, 2, 3, 4)
	const d, n = 9, 16 // k=4 ≤ d+1
	shares, err := SharePacked(secrets, d, n)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReconstructPacked(shares[:d+1], d, len(secrets))
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(got, secrets) {
		t.Errorf("reconstructed %v, want %v", got, secrets)
	}
}

func TestPackedReconstructProperty(t *testing.T) {
	f := func(raw []uint64) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		secrets := make([]field.Element, len(raw))
		for i, v := range raw {
			secrets[i] = field.New(v)
		}
		k := len(secrets)
		d := k + 3 // some padding randomness
		n := d + 5
		shares, err := SharePacked(secrets, d, n)
		if err != nil {
			return false
		}
		got, err := ReconstructPacked(shares[n-d-1:], d, k)
		if err != nil {
			return false
		}
		return field.EqualVec(got, secrets)
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestNotEnoughShares(t *testing.T) {
	shares, err := ShareStandard(field.New(5), 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReconstructStandard(shares[:4], 4); err == nil {
		t.Error("reconstruction with d shares succeeded")
	}
}

func TestInconsistentSharesDetected(t *testing.T) {
	shares, err := ShareStandard(field.New(5), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	shares[7].Value = shares[7].Value.Add(field.One) // corrupt one extra share
	if _, err := ReconstructStandard(shares, 2); err == nil {
		t.Error("corrupted share set accepted")
	}
}

func TestLinearHomomorphism(t *testing.T) {
	a := secretsOf(10, 20, 30)
	b := secretsOf(1, 2, 3)
	const d, n = 6, 12
	sa, err := SharePacked(a, d, n)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := SharePacked(b, d, n)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := AddShares(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReconstructPacked(sum[:d+1], d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := secretsOf(11, 22, 33); !field.EqualVec(got, want) {
		t.Errorf("[[a]]+[[b]] reconstructed %v, want %v", got, want)
	}
}

func TestMultiplicativeHomomorphism(t *testing.T) {
	// [[x*y]]_{d1+d2} = [[x]]_{d1} * [[y]]_{d2}: share-wise products of
	// degree-d1 and degree-d2 sharings reconstruct the Schur product at
	// degree d1+d2.
	x := secretsOf(3, 5, 7)
	y := secretsOf(11, 13, 17)
	const d1, d2, n = 4, 5, 12
	sx, err := SharePacked(x, d1, n)
	if err != nil {
		t.Fatal(err)
	}
	sy, err := SharePacked(y, d2, n)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := MulShares(sx, sy)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReconstructPacked(prod[:d1+d2+1], d1+d2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := secretsOf(33, 65, 119); !field.EqualVec(got, want) {
		t.Errorf("[[x]]*[[y]] reconstructed %v, want %v", got, want)
	}
}

func TestPublicVectorMultiplication(t *testing.T) {
	// Paper §3.2: c * [[x]]_{n-k} computed as [[c]]_{k-1} * [[x]]_{n-k},
	// reconstructable at degree n-1.
	const n = 12
	k := 3
	c := secretsOf(2, 4, 6)
	x := secretsOf(100, 200, 300)
	dx := n - k
	sx, err := SharePacked(x, dx, n)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ConstantPacked(c, n)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := MulShares(sc, sx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReconstructPacked(prod, n-1, k)
	if err != nil {
		t.Fatal(err)
	}
	if want := secretsOf(200, 800, 1800); !field.EqualVec(got, want) {
		t.Errorf("c*[[x]] = %v, want %v", got, want)
	}
}

func TestConstantPackedShareMatchesFull(t *testing.T) {
	c := secretsOf(9, 8, 7, 6)
	const n = 9
	full, err := ConstantPacked(c, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		one, err := ConstantPackedShare(c, i)
		if err != nil {
			t.Fatal(err)
		}
		if one != full[i-1] {
			t.Errorf("share %d: %v vs %v", i, one, full[i-1])
		}
	}
}

func TestPrivacyThreshold(t *testing.T) {
	// Any d-k+1 shares are independent of the secrets: with d=k (one random
	// padding point), a single share must not determine the secret. We test a
	// weaker observable property: two different secret vectors can produce
	// the same single-share value (statistically, shares of a fixed secret
	// vary across sharings).
	secrets := secretsOf(42, 43)
	seen := make(map[field.Element]bool)
	for i := 0; i < 32; i++ {
		shares, err := SharePacked(secrets, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		seen[shares[4].Value] = true
	}
	if len(seen) < 2 {
		t.Error("share of fixed secret constant across re-sharings — no privacy randomness")
	}
}

func TestValidateParams(t *testing.T) {
	cases := []struct {
		name    string
		k, d, n int
	}{
		{"k too small", 0, 3, 5},
		{"d below k-1", 4, 2, 5},
		{"d above n-1", 1, 5, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			secrets := make([]field.Element, c.k)
			if _, err := SharePacked(secrets, c.d, c.n); err == nil {
				t.Errorf("SharePacked(k=%d,d=%d,n=%d) accepted", c.k, c.d, c.n)
			}
		})
	}
}

func TestPackingLagrangeCoeffs(t *testing.T) {
	// The domain's share rows — the l_j(i) packing coefficients of offline
	// Step 4 — applied to (secrets, padding) must produce valid packed
	// shares: reconstructing from them recovers the secrets.
	const k, tt, n = 3, 2, 10
	d := tt + k - 1
	secrets := secretsOf(5, 10, 15)
	padding := secretsOf(1234, 5678)
	dom, err := GetDomain(k, d, n)
	if err != nil {
		t.Fatal(err)
	}
	points := append(field.CloneVec(secrets), padding...)
	shares := make([]Share, n)
	for i := 0; i < n; i++ {
		shares[i] = Share{Index: i + 1, Value: field.InnerProduct(dom.ShareRow(i+1), points)}
	}
	got, err := ReconstructPacked(shares[:d+1], d, k)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(got, secrets) {
		t.Errorf("packed via Lagrange coeffs reconstructed %v, want %v", got, secrets)
	}
}

func TestPackingLagrangeCoeffsInvalid(t *testing.T) {
	// k=0, t=1 and k=1, t=-1, as degrees d = t+k-1.
	if _, err := GetDomain(0, 1+0-1, 4); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := GetDomain(1, -1+1-1, 4); err == nil {
		t.Error("accepted t=-1")
	}
}

func TestAddSharesMismatch(t *testing.T) {
	a := []Share{{Index: 1, Value: field.One}}
	b := []Share{{Index: 2, Value: field.One}}
	if _, err := AddShares(a, b); err == nil {
		t.Error("AddShares accepted index mismatch")
	}
	if _, err := AddShares(a, nil); err == nil {
		t.Error("AddShares accepted length mismatch")
	}
	if _, err := MulShares(a, b); err == nil {
		t.Error("MulShares accepted index mismatch")
	}
}

func TestSlotPoints(t *testing.T) {
	pts := SlotPoints(3)
	want := []field.Element{field.NewInt64(0), field.NewInt64(-1), field.NewInt64(-2)}
	if !field.EqualVec(pts, want) {
		t.Errorf("SlotPoints(3) = %v, want %v", pts, want)
	}
}

// BenchmarkSharePacked / BenchmarkReconstructPacked live in this package's
// bench_test.go, where the cached domain engine and the seed naive path
// are measured side by side at n ∈ {64, 256, 1024}: they are E12's
// generator (EXPERIMENTS.md).

// ShareStandard produces a degree-d standard Shamir sharing of one secret
// (stored at x = 0) for parties 1..n.
func ShareStandard(secret field.Element, d, n int) ([]Share, error) {
	return SharePacked([]field.Element{secret}, d, n)
}

// ReconstructStandard recovers a single secret from a degree-d sharing.
func ReconstructStandard(shares []Share, d int) (field.Element, error) {
	secrets, err := ReconstructPacked(shares, d, 1)
	if err != nil {
		return field.Zero, err
	}
	return secrets[0], nil
}

// AddShares returns the share-wise sum of two sharings held by the same
// party set — the linear homomorphism [[x+y]]_d = [[x]]_d + [[y]]_d.
func AddShares(a, b []Share) ([]Share, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("sharing: add: %d vs %d shares", len(a), len(b))
	}
	out := make([]Share, len(a))
	for i := range a {
		if a[i].Index != b[i].Index {
			return nil, fmt.Errorf("sharing: add: index mismatch at %d: %d vs %d", i, a[i].Index, b[i].Index)
		}
		out[i] = Share{Index: a[i].Index, Value: a[i].Value.Add(b[i].Value)}
	}
	return out, nil
}

// MulShares returns the share-wise product — the degree-additive
// multiplication [[x*y]]_{d1+d2} = [[x]]_{d1} * [[y]]_{d2}.
func MulShares(a, b []Share) ([]Share, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("sharing: mul: %d vs %d shares", len(a), len(b))
	}
	out := make([]Share, len(a))
	for i := range a {
		if a[i].Index != b[i].Index {
			return nil, fmt.Errorf("sharing: mul: index mismatch at %d: %d vs %d", i, a[i].Index, b[i].Index)
		}
		out[i] = Share{Index: a[i].Index, Value: a[i].Value.Mul(b[i].Value)}
	}
	return out, nil
}

// ConstantPacked returns the degree-(k-1) packed sharing of a public vector c:
// the unique polynomial of degree k-1 through the slots. Every party can
// compute its own share locally — this is the multiplication-friendliness
// trick from the paper's Section 3.2 (Step 1 of public-vector multiplication).
// Shares come from the cached constant-packing domain: one coefficient row
// per party, computed once per (k, index) process-wide.
func ConstantPacked(c []field.Element, n int) ([]Share, error) {
	k := len(c)
	if k == 0 {
		return nil, errors.New("sharing: empty public vector")
	}
	cd, err := GetConstDomain(k)
	if err != nil {
		return nil, err
	}
	shares := make([]Share, n)
	for i := 0; i < n; i++ {
		if shares[i], err = cd.Share(c, i+1); err != nil {
			return nil, err
		}
	}
	return shares, nil
}

// ConstantPackedShare returns only party `index`'s share of the degree-(k-1)
// packed sharing of the public vector c — a cached-row inner product, as
// the μ-opening loop computes it through ConstDomain.Share.
func ConstantPackedShare(c []field.Element, index int) (Share, error) {
	k := len(c)
	if k == 0 {
		return Share{}, errors.New("sharing: empty public vector")
	}
	cd, err := GetConstDomain(k)
	if err != nil {
		return Share{}, err
	}
	return cd.Share(c, index)
}
