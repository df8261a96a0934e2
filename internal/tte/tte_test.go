package tte

import (
	"errors"
	"math/big"
	"strings"
	"testing"

	"yosompc/internal/paillier"
)

// backends under test; both must satisfy Scheme and Simulator identically.
func testBackends(t *testing.T) map[string]Scheme {
	t.Helper()
	real, err := NewThreshold(paillier.FixedTestKey(0))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Scheme{
		"threshold-paillier": real,
		"sim":                NewSim(512),
	}
}

func decryptVia(t *testing.T, s Scheme, pk PublicKey, shares []KeyShare, ct Ciphertext, idx []int) *big.Int {
	t.Helper()
	parts := make([]PartialDec, 0, len(idx))
	for _, i := range idx {
		p, err := s.PartialDecrypt(pk, shares[i-1], ct)
		if err != nil {
			t.Fatalf("PartialDecrypt(%d): %v", i, err)
		}
		parts = append(parts, p)
	}
	m, err := s.Combine(pk, ct, parts)
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}
	return m
}

func TestEncryptThresholdDecrypt(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, shares, err := s.KeyGen(5, 2)
			if err != nil {
				t.Fatal(err)
			}
			m := big.NewInt(424242)
			ct, err := s.Encrypt(pk, m, big.NewInt(1_000_000))
			if err != nil {
				t.Fatal(err)
			}
			got := decryptVia(t, s, pk, shares, ct, []int{1, 2, 3})
			if got.Cmp(m) != 0 {
				t.Errorf("decrypted %v, want %v", got, m)
			}
		})
	}
}

func TestDecryptWithArbitrarySubsets(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, shares, err := s.KeyGen(6, 2)
			if err != nil {
				t.Fatal(err)
			}
			m := big.NewInt(777)
			ct, err := s.Encrypt(pk, m, big.NewInt(1000))
			if err != nil {
				t.Fatal(err)
			}
			for _, subset := range [][]int{{1, 2, 3}, {4, 5, 6}, {1, 3, 6}, {2, 4, 5, 6}} {
				if got := decryptVia(t, s, pk, shares, ct, subset); got.Cmp(m) != 0 {
					t.Errorf("subset %v: decrypted %v, want %v", subset, got, m)
				}
			}
		})
	}
}

func TestCombineTooFewPartials(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, shares, err := s.KeyGen(5, 2)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := s.Encrypt(pk, big.NewInt(1), big.NewInt(1))
			if err != nil {
				t.Fatal(err)
			}
			var parts []PartialDec
			for _, i := range []int{1, 2} { // only t partials
				p, err := s.PartialDecrypt(pk, shares[i-1], ct)
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, p)
			}
			if _, err := s.Combine(pk, ct, parts); !errors.Is(err, ErrTooFewPartials) {
				t.Errorf("Combine with t partials: err = %v, want ErrTooFewPartials", err)
			}
		})
	}
}

func TestCombineDuplicateIndex(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, shares, err := s.KeyGen(5, 1)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := s.Encrypt(pk, big.NewInt(1), big.NewInt(1))
			if err != nil {
				t.Fatal(err)
			}
			p, err := s.PartialDecrypt(pk, shares[0], ct)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Combine(pk, ct, []PartialDec{p, p}); !errors.Is(err, ErrDuplicateIndex) {
				t.Errorf("err = %v, want ErrDuplicateIndex", err)
			}
		})
	}
}

func TestEvalLinearCombination(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, shares, err := s.KeyGen(4, 1)
			if err != nil {
				t.Fatal(err)
			}
			b := big.NewInt(10_000)
			c1, err := s.Encrypt(pk, big.NewInt(100), b)
			if err != nil {
				t.Fatal(err)
			}
			c2, err := s.Encrypt(pk, big.NewInt(7), b)
			if err != nil {
				t.Fatal(err)
			}
			// 3·100 + 5·7 = 335
			sum, err := s.Eval(pk, []Ciphertext{c1, c2}, []*big.Int{big.NewInt(3), big.NewInt(5)})
			if err != nil {
				t.Fatal(err)
			}
			if got := decryptVia(t, s, pk, shares, sum, []int{1, 2}); got.Cmp(big.NewInt(335)) != 0 {
				t.Errorf("Eval result decrypts to %v, want 335", got)
			}
			// Bound must accumulate: 3·10000 + 5·10000 = 80000.
			if sum.Bound().Cmp(big.NewInt(80_000)) != 0 {
				t.Errorf("bound = %v, want 80000", sum.Bound())
			}
		})
	}
}

func TestEvalZeroCoefficient(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, shares, err := s.KeyGen(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			c1, err := s.Encrypt(pk, big.NewInt(9), big.NewInt(9))
			if err != nil {
				t.Fatal(err)
			}
			c2, err := s.Encrypt(pk, big.NewInt(100), big.NewInt(100))
			if err != nil {
				t.Fatal(err)
			}
			out, err := s.Eval(pk, []Ciphertext{c1, c2}, []*big.Int{big.NewInt(1), big.NewInt(0)})
			if err != nil {
				t.Fatal(err)
			}
			if got := decryptVia(t, s, pk, shares, out, []int{1, 2}); got.Cmp(big.NewInt(9)) != 0 {
				t.Errorf("decrypts to %v, want 9", got)
			}
		})
	}
}

func TestEvalRejectsNegativeCoefficient(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, _, err := s.KeyGen(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			c, err := s.Encrypt(pk, big.NewInt(1), big.NewInt(1))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Eval(pk, []Ciphertext{c}, []*big.Int{big.NewInt(-1)}); !errors.Is(err, ErrNegativeCoeff) {
				t.Errorf("err = %v, want ErrNegativeCoeff", err)
			}
		})
	}
}

func TestEvalBoundOverflow(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, _, err := s.KeyGen(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			nearMax := new(big.Int).Sub(pk.MaxPlaintext(), big.NewInt(1))
			c, err := s.Encrypt(pk, big.NewInt(1), nearMax)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Eval(pk, []Ciphertext{c, c}, []*big.Int{big.NewInt(1), big.NewInt(1)}); !errors.Is(err, ErrPlaintextTooBig) {
				t.Errorf("err = %v, want ErrPlaintextTooBig", err)
			}
		})
	}
}

func TestEncryptRejectsBadInputs(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, _, err := s.KeyGen(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Encrypt(pk, big.NewInt(-1), big.NewInt(10)); err == nil {
				t.Error("accepted negative plaintext")
			}
			if _, err := s.Encrypt(pk, big.NewInt(11), big.NewInt(10)); err == nil {
				t.Error("accepted plaintext above bound")
			}
			tooBig := new(big.Int).Lsh(pk.MaxPlaintext(), 1)
			if _, err := s.Encrypt(pk, big.NewInt(1), tooBig); !errors.Is(err, ErrPlaintextTooBig) {
				t.Errorf("err = %v, want ErrPlaintextTooBig", err)
			}
		})
	}
}

// A rejected plaintext is a secret: on every backend, single and batched, the
// range error is the one constant ErrPlaintextRange and the value's decimal
// form is nowhere in its message.
func TestEncryptRangeErrorOmitsThePlaintext(t *testing.T) {
	const secret = 918273645546372819
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, _, err := s.KeyGen(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, ErrPlaintextRange) {
					t.Errorf("%s: err = %v, want ErrPlaintextRange", what, err)
				} else if msg := err.Error(); strings.Contains(msg, "918273645546372819") || msg != ErrPlaintextRange.Error() {
					t.Errorf("%s: message %q is not the constant one", what, msg)
				}
			}
			for _, m := range []*big.Int{big.NewInt(secret), big.NewInt(-secret)} {
				_, err := s.Encrypt(pk, m, big.NewInt(1000))
				check("Encrypt", err)
				_, err = EncryptAll(s, pk, []*big.Int{big.NewInt(1), m}, big.NewInt(1000), 1)
				check("EncryptAll", err)
			}
		})
	}
}

func TestReshareOneEpoch(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			const n, tt = 5, 2
			pk, shares, err := s.KeyGen(n, tt)
			if err != nil {
				t.Fatal(err)
			}
			m := big.NewInt(31337)
			ct, err := s.Encrypt(pk, m, big.NewInt(100_000))
			if err != nil {
				t.Fatal(err)
			}
			next := reshareAll(t, s, pk, shares, []int{1, 3, 5})
			for _, sh := range next {
				if sh.Epoch() != 1 {
					t.Errorf("share %d epoch = %d, want 1", sh.Index(), sh.Epoch())
				}
			}
			if got := decryptVia(t, s, pk, next, ct, []int{2, 3, 4}); got.Cmp(m) != 0 {
				t.Errorf("after resharing decrypted %v, want %v", got, m)
			}
		})
	}
}

func TestReshareTwoEpochs(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			const n, tt = 4, 1
			pk, shares, err := s.KeyGen(n, tt)
			if err != nil {
				t.Fatal(err)
			}
			m := big.NewInt(5)
			ct, err := s.Encrypt(pk, m, big.NewInt(5))
			if err != nil {
				t.Fatal(err)
			}
			e1 := reshareAll(t, s, pk, shares, []int{1, 2})
			e2 := reshareAll(t, s, pk, e1, []int{3, 4})
			if got := decryptVia(t, s, pk, e2, ct, []int{1, 4}); got.Cmp(m) != 0 {
				t.Errorf("after two resharings decrypted %v, want %v", got, m)
			}
		})
	}
}

// reshareAll has the parties in `resharers` run TKRes and every party run
// TKRec on the subshares addressed to it.
func reshareAll(t *testing.T, s Scheme, pk PublicKey, shares []KeyShare, resharers []int) []KeyShare {
	t.Helper()
	byTarget := make(map[int][]SubShare)
	for _, i := range resharers {
		subs, err := s.Reshare(pk, shares[i-1])
		if err != nil {
			t.Fatalf("Reshare(%d): %v", i, err)
		}
		for _, sub := range subs {
			byTarget[sub.To()] = append(byTarget[sub.To()], sub)
		}
	}
	next := make([]KeyShare, len(shares))
	for j := 1; j <= len(shares); j++ {
		sh, err := s.RecoverShare(pk, j, byTarget[j])
		if err != nil {
			t.Fatalf("RecoverShare(%d): %v", j, err)
		}
		next[j-1] = sh
	}
	return next
}

func TestRecoverShareValidation(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, shares, err := s.KeyGen(4, 1)
			if err != nil {
				t.Fatal(err)
			}
			subs1, err := s.Reshare(pk, shares[0])
			if err != nil {
				t.Fatal(err)
			}
			// Wrong target.
			if _, err := s.RecoverShare(pk, 2, []SubShare{subs1[0]}); err == nil {
				t.Error("accepted subshare addressed elsewhere")
			}
			// Too few.
			if _, err := s.RecoverShare(pk, 1, []SubShare{subs1[0]}); !errors.Is(err, ErrTooFewPartials) {
				t.Errorf("err = %v, want ErrTooFewPartials", err)
			}
			// Duplicate from.
			if _, err := s.RecoverShare(pk, 1, []SubShare{subs1[0], subs1[0]}); !errors.Is(err, ErrDuplicateIndex) {
				t.Errorf("err = %v, want ErrDuplicateIndex", err)
			}
		})
	}
}

func TestEpochMismatchDetected(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, shares, err := s.KeyGen(4, 1)
			if err != nil {
				t.Fatal(err)
			}
			next := reshareAll(t, s, pk, shares, []int{1, 2})
			ct, err := s.Encrypt(pk, big.NewInt(3), big.NewInt(3))
			if err != nil {
				t.Fatal(err)
			}
			p0, err := s.PartialDecrypt(pk, shares[0], ct)
			if err != nil {
				t.Fatal(err)
			}
			p1, err := s.PartialDecrypt(pk, next[1], ct)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Combine(pk, ct, []PartialDec{p0, p1}); !errors.Is(err, ErrEpochMismatch) {
				t.Errorf("err = %v, want ErrEpochMismatch", err)
			}
		})
	}
}

func TestSimPartialDecryptRetargets(t *testing.T) {
	for name, s := range testBackends(t) {
		sim, ok := s.(Simulator)
		if !ok {
			t.Errorf("%s does not implement Simulator", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			const n, tt = 5, 2
			pk, shares, err := s.KeyGen(n, tt)
			if err != nil {
				t.Fatal(err)
			}
			// The ciphertext actually encrypts 1000 ...
			ct, err := s.Encrypt(pk, big.NewInt(1000), big.NewInt(10_000))
			if err != nil {
				t.Fatal(err)
			}
			// ... but the simulator must open it as 55, given two corrupt
			// shares (parties 1, 2) and honest indices 3, 4, 5.
			target := big.NewInt(55)
			corrupt := []KeyShare{shares[0], shares[1]}
			simParts, err := sim.SimPartialDecrypt(pk, ct, target, corrupt, []int{3, 4, 5})
			if err != nil {
				t.Fatal(err)
			}
			// Corrupt parties decrypt honestly with their real shares.
			var parts []PartialDec
			for _, c := range corrupt {
				p, err := s.PartialDecrypt(pk, c, ct)
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, p)
			}
			parts = append(parts, simParts...)
			got, err := s.Combine(pk, ct, parts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(target) != 0 {
				t.Errorf("simulated combination = %v, want %v", got, target)
			}
		})
	}
}

func TestSimPartialDecryptFewerCorrupt(t *testing.T) {
	// With fewer than t corrupt shares the simulator pads with free points.
	for name, s := range testBackends(t) {
		sim := s.(Simulator)
		t.Run(name, func(t *testing.T) {
			const n, tt = 5, 2
			pk, shares, err := s.KeyGen(n, tt)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := s.Encrypt(pk, big.NewInt(123), big.NewInt(1000))
			if err != nil {
				t.Fatal(err)
			}
			target := big.NewInt(99)
			corrupt := []KeyShare{shares[0]} // 1 < t
			simParts, err := sim.SimPartialDecrypt(pk, ct, target, corrupt, []int{2, 3, 4, 5})
			if err != nil {
				t.Fatal(err)
			}
			p1, err := s.PartialDecrypt(pk, shares[0], ct)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Combine(pk, ct, append(simParts, p1))
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(target) != 0 {
				t.Errorf("simulated combination = %v, want %v", got, target)
			}
		})
	}
}

func TestSizesArePositive(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, shares, err := s.KeyGen(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			if pk.CiphertextSize() <= 0 {
				t.Error("non-positive ciphertext size")
			}
			ct, err := s.Encrypt(pk, big.NewInt(1), big.NewInt(1))
			if err != nil {
				t.Fatal(err)
			}
			if ct.Size() <= 0 {
				t.Error("non-positive ct size")
			}
			if shares[0].Size() <= 0 {
				t.Error("non-positive share size")
			}
			p, err := s.PartialDecrypt(pk, shares[0], ct)
			if err != nil {
				t.Fatal(err)
			}
			if p.Size() <= 0 {
				t.Error("non-positive partial size")
			}
			subs, err := s.Reshare(pk, shares[0])
			if err != nil {
				t.Fatal(err)
			}
			if subs[0].Size() <= 0 {
				t.Error("non-positive subshare size")
			}
		})
	}
}

func TestKeyGenValidation(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			for _, c := range []struct{ n, t int }{{0, 0}, {3, 3}, {3, -1}} {
				if _, _, err := s.KeyGen(c.n, c.t); err == nil {
					t.Errorf("KeyGen(%d,%d) accepted", c.n, c.t)
				}
			}
		})
	}
}

func TestNewThresholdRequiresSafePrimeKey(t *testing.T) {
	if _, err := NewThreshold(nil); err == nil {
		t.Error("accepted nil dealer key")
	}
	plain := &paillier.PrivateKey{} // no M
	if _, err := NewThreshold(plain); err == nil {
		t.Error("accepted non-safe-prime dealer key")
	}
}

func TestFactorial(t *testing.T) {
	cases := map[int]int64{0: 1, 1: 1, 5: 120, 10: 3628800}
	for n, want := range cases {
		if got := factorial(n); got.Cmp(big.NewInt(want)) != 0 {
			t.Errorf("%d! = %v, want %d", n, got, want)
		}
	}
}

func TestScaledLagrangeExactness(t *testing.T) {
	// Reconstruction identity: for f(x)=7+3x+x², Σ Λ_i·f(x_i) = Δ·f(0).
	delta := factorial(6)
	xs := []int{2, 4, 5}
	f := func(x int64) *big.Int { return big.NewInt(7 + 3*x + x*x) }
	lambdas, err := scaledLagrangeAtZero(delta, xs)
	if err != nil {
		t.Fatal(err)
	}
	acc := new(big.Int)
	for i, x := range xs {
		acc.Add(acc, new(big.Int).Mul(lambdas[i], f(int64(x))))
	}
	want := new(big.Int).Mul(delta, f(0))
	if acc.Cmp(want) != 0 {
		t.Errorf("Σ Λ_i f(x_i) = %v, want Δ·f(0) = %v", acc, want)
	}
}

func TestScaledLagrangeDuplicate(t *testing.T) {
	if _, err := scaledLagrangeAtZero(factorial(4), []int{1, 1}); !errors.Is(err, ErrDuplicateIndex) {
		t.Errorf("err = %v, want ErrDuplicateIndex", err)
	}
}
