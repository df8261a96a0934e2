package paillier

import (
	"fmt"
	"math/big"
)

// CRT-accelerated decryption: instead of one exponentiation modulo N², the
// plaintext is recovered modulo p and q separately (exponent p−1 resp.
// q−1, modulus p² resp. q²) and combined by the Chinese remainder theorem
// — roughly a 3–4× speedup, which matters in the offline phase where
// committees open two ciphertexts per multiplication gate.

// crtState is the per-key precomputation, held on the key itself
// (PrivateKey.crtPre) so it lives exactly as long as the key does.
type crtState struct {
	p2, q2 *big.Int // p², q²
	pm1    *big.Int // p−1
	qm1    *big.Int // q−1
	hp     *big.Int // L_p(g^{p−1} mod p²)^{-1} mod p, g = 1+N
	hq     *big.Int // L_q(g^{q−1} mod q²)^{-1} mod q
	qInvP  *big.Int // q^{-1} mod p
}

func (sk *PrivateKey) crt() (*crtState, error) {
	if st := sk.crtPre.Load(); st != nil {
		return st, nil
	}
	// Precompute outside any lock: the two exponentiations cost real time
	// at production moduli. Concurrent first callers may duplicate the
	// work; the compare-and-swap below keeps one winner.
	one := big.NewInt(1)
	st := &crtState{
		p2:  new(big.Int).Mul(sk.P, sk.P),
		q2:  new(big.Int).Mul(sk.Q, sk.Q),
		pm1: new(big.Int).Sub(sk.P, one),
		qm1: new(big.Int).Sub(sk.Q, one),
	}
	g := new(big.Int).Add(sk.N, one)
	lp := func(x, p *big.Int) *big.Int {
		l := new(big.Int).Sub(x, one)
		return l.Div(l, p)
	}
	gp := new(big.Int).Exp(g, st.pm1, st.p2)
	st.hp = new(big.Int).ModInverse(lp(gp, sk.P), sk.P)
	gq := new(big.Int).Exp(g, st.qm1, st.q2)
	st.hq = new(big.Int).ModInverse(lp(gq, sk.Q), sk.Q)
	st.qInvP = new(big.Int).ModInverse(sk.Q, sk.P)
	if st.hp == nil || st.hq == nil || st.qInvP == nil {
		return nil, fmt.Errorf("paillier: CRT precomputation failed")
	}

	if !sk.crtPre.CompareAndSwap(nil, st) {
		return sk.crtPre.Load(), nil
	}
	return st, nil
}

// DecryptCRT recovers the plaintext of c using per-prime exponentiations.
// It is equivalent to Decrypt and ~3–4× faster.
func (sk *PrivateKey) DecryptCRT(c *Ciphertext) (*big.Int, error) {
	if err := sk.checkCiphertext(c); err != nil {
		return nil, err
	}
	st, err := sk.crt()
	if err != nil {
		return nil, err
	}
	one := big.NewInt(1)
	// m mod p.
	cp := new(big.Int).Mod(c.C, st.p2)
	cp.Exp(cp, st.pm1, st.p2)
	mp := new(big.Int).Sub(cp, one)
	mp.Div(mp, sk.P)
	mp.Mul(mp, st.hp)
	mp.Mod(mp, sk.P)
	// m mod q.
	cq := new(big.Int).Mod(c.C, st.q2)
	cq.Exp(cq, st.qm1, st.q2)
	mq := new(big.Int).Sub(cq, one)
	mq.Div(mq, sk.Q)
	mq.Mul(mq, st.hq)
	mq.Mod(mq, sk.Q)
	// Garner recombination: m = mq + q·((mp − mq)·q^{-1} mod p).
	diff := new(big.Int).Sub(mp, mq)
	diff.Mul(diff, st.qInvP)
	diff.Mod(diff, sk.P)
	m := diff.Mul(diff, sk.Q)
	m.Add(m, mq)
	return m, nil
}
