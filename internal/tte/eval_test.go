package tte

import (
	"errors"
	"math/big"
	"testing"
)

// genericEval is TEval with every coefficient multiplied in, one included:
// Σ c_i·bound_i for the bound, and Σ c_i·m_i on Sim or Π ct_i^{c_i} mod
// N² on the real backend for the value.
func genericEval(s Scheme, cts []Ciphertext, coeffs []*big.Int) (value, bound *big.Int) {
	bound = new(big.Int)
	for i, ct := range cts {
		bound.Add(bound, new(big.Int).Mul(coeffs[i], ct.(*ciphertext).bound))
	}
	if th, ok := s.(*Threshold); ok {
		acc := big.NewInt(1)
		for i, ct := range cts {
			if coeffs[i].Sign() != 0 {
				acc.Mul(acc, new(big.Int).Exp(ct.(*ciphertext).value, coeffs[i], th.dealer.N2))
				acc.Mod(acc, th.dealer.N2)
			}
		}
		return acc, bound
	}
	value = new(big.Int)
	for i, ct := range cts {
		value.Add(value, new(big.Int).Mul(coeffs[i], ct.(*ciphertext).value))
	}
	return value, bound
}

// snapshot copies every input's value and bound, to check later that an
// operation left them alone.
func snapshot(cts []Ciphertext) [][2]*big.Int {
	out := make([][2]*big.Int, len(cts))
	for i, ct := range cts {
		x := ct.(*ciphertext)
		out[i] = [2]*big.Int{new(big.Int).Set(x.value), new(big.Int).Set(x.bound)}
	}
	return out
}

func unchanged(t *testing.T, what string, cts []Ciphertext, before [][2]*big.Int) {
	t.Helper()
	for i, ct := range cts {
		x := ct.(*ciphertext)
		if x.value.Cmp(before[i][0]) != 0 || x.bound.Cmp(before[i][1]) != 0 {
			t.Errorf("%s modified input %d: value %v bound %v, was %v and %v", what, i, x.value, x.bound, before[i][0], before[i][1])
		}
	}
}

// A coefficient of one adds where the generic path multiplies: on both
// backends the value, the bound and the encoding are the generic ones bit
// for bit, for all-one sums and for mixes of 0, 1 and near-capacity
// coefficients, and no input is modified.
func TestEvalUnitCoefficientsMatchGeneric(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, shares, err := s.KeyGen(4, 1)
			if err != nil {
				t.Fatal(err)
			}
			const terms = 5
			ms := make([]*big.Int, terms)
			for i := range ms {
				ms[i] = big.NewInt(int64(100*i + 7))
			}
			cts, err := s.EncryptMany(pk, ms, big.NewInt(1000), 1)
			if err != nil {
				t.Fatal(err)
			}
			// Near-capacity: terms copies of it times the bound 1000 still
			// fit under MaxPlaintext.
			wide := new(big.Int).Rsh(pk.MaxPlaintext(), 14)
			wide.SetBit(wide, 0, 1)
			one, zero := big.NewInt(1), new(big.Int)
			for _, tc := range []struct {
				name   string
				coeffs []*big.Int
			}{
				{"all ones", []*big.Int{one, one, one, one, one}},
				{"one term", []*big.Int{one}},
				{"mixed", []*big.Int{zero, one, wide, one, zero}},
				{"wide first", []*big.Int{wide, zero, one, big.NewInt(3), one}},
			} {
				in := cts[:len(tc.coeffs)]
				before := snapshot(in)
				got, err := s.Eval(pk, in, tc.coeffs)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				unchanged(t, tc.name+": Eval", in, before)
				value, bound := genericEval(s, in, tc.coeffs)
				x := got.(*ciphertext)
				if x.value.Cmp(value) != 0 {
					t.Errorf("%s: value %v, generic %v", tc.name, x.value, value)
				}
				if x.bound.Cmp(bound) != 0 {
					t.Errorf("%s: bound %v, generic %v", tc.name, x.bound, bound)
				}
				codec := s.(Codec)
				enc, err := codec.EncodeCiphertext(got)
				if err != nil {
					t.Fatal(err)
				}
				want, err := codec.EncodeCiphertext(&ciphertext{value: value, bound: bound, size: x.size})
				if err != nil || string(enc) != string(want) {
					t.Errorf("%s: encoding differs from the generic one (%v)", tc.name, err)
				}

				// Combine reads the partials and the ciphertext, and leaves
				// both alone; so does PartialDecrypt.
				parts := make([]PartialDec, 0, 2)
				for _, sh := range shares[:2] {
					p, err := s.PartialDecrypt(pk, sh, got)
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, p)
				}
				pvals := make([]*big.Int, len(parts))
				for i, p := range parts {
					pvals[i] = new(big.Int).Set(p.(*partial).v)
				}
				outs := []Ciphertext{got}
				before = snapshot(outs)
				m, err := s.Combine(pk, got, parts)
				if err != nil {
					t.Fatalf("%s: Combine: %v", tc.name, err)
				}
				unchanged(t, tc.name+": Combine", outs, before)
				for i, p := range parts {
					if p.(*partial).v.Cmp(pvals[i]) != 0 {
						t.Errorf("%s: Combine modified partial %d", tc.name, i)
					}
				}
				plain := new(big.Int)
				for i, c := range tc.coeffs {
					plain.Add(plain, new(big.Int).Mul(c, ms[i]))
				}
				if m.Cmp(plain) != 0 {
					t.Errorf("%s: decrypts to %v, want %v", tc.name, m, plain)
				}
				// The plaintext is the caller's: changing it changes no
				// ciphertext or partial.
				m.SetInt64(-1)
				unchanged(t, tc.name+": the caller's plaintext", outs, before)
			}
		})
	}
}

// EncryptMany copies the caller's bound once and shares the copy across the
// batch: every ciphertext reports it, and changing the caller's bound
// afterwards changes none of them.
func TestEncryptManySharesOneBound(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, _, err := s.KeyGen(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			bound := big.NewInt(50)
			cts, err := s.EncryptMany(pk, []*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(3)}, bound, 1)
			if err != nil {
				t.Fatal(err)
			}
			bound.SetInt64(7)
			for i, ct := range cts {
				if ct.Bound() != cts[0].Bound() || ct.Bound().Int64() != 50 {
					t.Errorf("ciphertext %d: bound %v, want the batch's one copy of 50", i, ct.Bound())
				}
			}
		})
	}
}

// EncryptMany keeps copies of what the caller passed: mutating or wiping
// the plaintexts and the bound afterwards leaves every ciphertext's value,
// bound and encoding as it was.
func TestEncryptManyCopiesItsInputs(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, _, err := s.KeyGen(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			ms := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(999)}
			bound := new(big.Int).Lsh(big.NewInt(1), 71)
			cts, err := s.EncryptMany(pk, ms, bound, 1)
			if err != nil {
				t.Fatal(err)
			}
			before := snapshot(cts)
			codec := s.(Codec)
			encs := make([][]byte, len(cts))
			for i, ct := range cts {
				if encs[i], err = codec.EncodeCiphertext(ct); err != nil {
					t.Fatal(err)
				}
			}
			for _, m := range ms {
				clear(m.Bits())
			}
			ms[1].SetInt64(12345)
			ms[2].Add(ms[2], ms[2])
			clear(bound.Bits())
			unchanged(t, "changing the inputs", cts, before)
			for i, ct := range cts {
				enc, err := codec.EncodeCiphertext(ct)
				if err != nil || string(enc) != string(encs[i]) {
					t.Errorf("ciphertext %d: encoding changed with the caller's inputs (%v)", i, err)
				}
			}
		})
	}
}

// A Sim batch is built from one slab each of ciphertexts, values and words:
// its allocation count does not grow with the batch.
func TestSimEncryptManyAllocations(t *testing.T) {
	s := NewSim(512)
	pk, _, err := s.KeyGen(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	bound := big.NewInt(1 << 62)
	for _, count := range []int{1, 64} {
		ms := make([]*big.Int, count)
		for i := range ms {
			ms[i] = big.NewInt(int64(i) << 40)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := s.EncryptMany(pk, ms, bound, 1); err != nil {
				t.Fatal(err)
			}
		})
		// Four slabs and the shared bound with its words read 6; a
		// ciphertext, value and words per value read 3·count + 3.
		if allocs > 8 {
			t.Errorf("EncryptMany of %d values: %.0f allocations, want at most 8", count, allocs)
		}
	}
}

// A Sim TEval result is one object plus one slab for the words of its
// value and bound, at any number of terms: evalSums accumulates in place, so
// a per-term temporary or a sum outgrowing its words shows here.
func TestSimEvalAllocations(t *testing.T) {
	s := NewSim(512)
	pk, _, err := s.KeyGen(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*big.Int, 64)
	ones := make([]*big.Int, 64)
	for i := range ms {
		ms[i] = big.NewInt(int64(i+1) << 50)
		ones[i] = big.NewInt(1)
	}
	cts, err := s.EncryptMany(pk, ms, big.NewInt(1<<62), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		cts    []Ciphertext
		coeffs []*big.Int
		budget float64
	}{
		{"one term", cts[:1], []*big.Int{big.NewInt(1<<60 + 3)}, 2},
		{"64-term sum", cts, ones, 2},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := s.Eval(pk, tc.cts, tc.coeffs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocations, want at most %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// Sim's n sub-shares come from one slab: O(1) allocations at any n.
func TestSimReshareAllocations(t *testing.T) {
	s := NewSim(512)
	for _, n := range []int{4, 256} {
		pk, shares, err := s.KeyGen(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			subs, err := s.Reshare(pk, shares[0])
			if err != nil || len(subs) != n {
				t.Fatalf("Reshare: %d sub-shares, %v", len(subs), err)
			}
		})
		// The interface slice and the slab read 2; a sub-share object
		// each reads n + 1.
		if allocs > 4 {
			t.Errorf("Reshare at n = %d: %.0f allocations, want at most 4", n, allocs)
		}
	}
}

// distinct still refuses a repeated party wherever it sits — first, last,
// inside the stack bitset or beyond it — and a mixed epoch, and reports the
// first problem in input order.
func TestDistinct(t *testing.T) {
	type msg struct{ party, epoch int }
	key := func(m msg) (int, int) { return m.party, m.epoch }
	for _, tc := range []struct {
		name  string
		n     int
		msgs  []msg
		want  error
		party int // the duplicate the error names
	}{
		{name: "distinct", n: 7, msgs: []msg{{1, 0}, {2, 0}, {7, 0}}},
		{name: "first repeated last", n: 7, msgs: []msg{{1, 0}, {2, 0}, {3, 0}, {1, 0}}, want: ErrDuplicateIndex, party: 1},
		{name: "last repeated", n: 7, msgs: []msg{{1, 0}, {2, 0}, {3, 0}, {3, 0}}, want: ErrDuplicateIndex, party: 3},
		{name: "first two", n: 7, msgs: []msg{{5, 0}, {5, 0}, {3, 0}}, want: ErrDuplicateIndex, party: 5},
		{name: "epoch before duplicate", n: 7, msgs: []msg{{1, 2}, {2, 3}, {1, 2}}, want: ErrEpochMismatch},
		{name: "duplicate before epoch", n: 7, msgs: []msg{{1, 2}, {1, 2}, {2, 3}}, want: ErrDuplicateIndex, party: 1},
		{name: "epoch last", n: 7, msgs: []msg{{1, 1}, {2, 1}, {3, 2}}, want: ErrEpochMismatch},
		{name: "beyond the stack bitset", n: 1024, msgs: []msg{{1000, 0}, {1, 0}, {1000, 0}}, want: ErrDuplicateIndex, party: 1000},
		{name: "party n", n: 300, msgs: []msg{{300, 0}, {299, 0}, {300, 0}}, want: ErrDuplicateIndex, party: 300},
		{name: "forged above n", n: 7, msgs: []msg{{1 << 31, 0}, {2, 0}, {1 << 31, 0}}, want: ErrDuplicateIndex, party: 1 << 31},
		{name: "forged distinct", n: 7, msgs: []msg{{1 << 31, 0}, {2, 0}, {1<<32 - 1, 0}, {-1, 0}}},
		{name: "negative", n: 7, msgs: []msg{{-1, 0}, {2, 0}, {-1, 0}}, want: ErrDuplicateIndex, party: -1},
		{name: "too few", n: 7, msgs: []msg{{1, 0}, {2, 0}}, want: ErrTooFewPartials},
	} {
		_, err := distinct(tc.msgs, tc.n, 2, "partials", key)
		if !errors.Is(err, tc.want) || (tc.want == nil) != (err == nil) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
			continue
		}
		if tc.want == ErrDuplicateIndex {
			if want := ErrDuplicateIndex.Error() + ": partials from " + big.NewInt(int64(tc.party)).String(); err.Error() != want {
				t.Errorf("%s: %q, want %q", tc.name, err, want)
			}
		}
	}
}

// Through Combine on both backends: a partial repeated in the first and in
// the last position is refused, and so is a mix of epochs.
func TestCombineRefusesRepeatsAnywhere(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, shares, err := s.KeyGen(4, 1)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := s.Encrypt(pk, big.NewInt(5), big.NewInt(5))
			if err != nil {
				t.Fatal(err)
			}
			parts := make([]PartialDec, len(shares))
			for i, sh := range shares {
				if parts[i], err = s.PartialDecrypt(pk, sh, ct); err != nil {
					t.Fatal(err)
				}
			}
			next := reshareAll(t, s, pk, shares, []int{1, 2})
			later, err := s.PartialDecrypt(pk, next[3], ct)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				name  string
				parts []PartialDec
				want  error
			}{
				{"first and last", []PartialDec{parts[0], parts[1], parts[2], parts[0]}, ErrDuplicateIndex},
				{"last two", []PartialDec{parts[0], parts[1], parts[2], parts[2]}, ErrDuplicateIndex},
				{"epoch mismatch last", []PartialDec{parts[0], parts[1], later}, ErrEpochMismatch},
			} {
				if _, err := s.Combine(pk, ct, tc.parts); !errors.Is(err, tc.want) {
					t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
				}
			}
		})
	}
}
