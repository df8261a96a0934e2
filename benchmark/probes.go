package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"net"
	"time"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/core"
	"yosompc/internal/field"
	"yosompc/internal/modexp"
	"yosompc/internal/monitor"
	"yosompc/internal/nizk"
	"yosompc/internal/parallel"
	"yosompc/internal/pke"
	"yosompc/internal/poly"
	"yosompc/internal/sharing"
	"yosompc/internal/transport"
	"yosompc/internal/tte"
)

// Probes time direct calls to one layer's public functions, at the
// committee size, packing and backends of the workload being run. They
// see a layer from outside only: a probe says what one call costs, not
// how many calls a phase makes, so probes do not sum to phase times.

// probeBudget is how long one probe samples for. Forty-odd probes at a
// tenth of a second each fit a trace run beside its traced iterations.
const probeBudget = 100 * time.Millisecond

// sink keeps results alive so the calls cannot be optimised away.
var sink any

// prober collects probe results; after the first error every later probe
// is skipped and the run reports it.
type prober struct {
	out map[string]summary
	err error
}

// sample calls op in batches long enough for the clock to resolve, for
// probeBudget, and returns the seconds one call took in each batch.
func (p *prober) sample(name string, op func() error) []float64 {
	if p.err != nil {
		return nil
	}
	timeBatch := func(n int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	batch := 1
	for {
		d, err := timeBatch(batch)
		if err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, err)
			return nil
		}
		if d >= 20*time.Microsecond {
			break
		}
		batch *= 2
	}
	var samples []float64
	for start := time.Now(); len(samples) < 5 || (time.Since(start) < probeBudget && len(samples) < 1000); {
		d, err := timeBatch(batch)
		if err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, err)
			return nil
		}
		samples = append(samples, d.Seconds()/float64(batch))
	}
	return samples
}

// unitsPerSecond converts a duration in seconds to the metric's unit.
var unitsPerSecond = map[string]float64{"ns": 1e9, "us": 1e6, "ms": 1e3, "s": 1}

// time records the median time of one call of op, in the metric's unit.
// perOp divides a sample that covers several operations (a whole-board
// pass) down to one.
func (p *prober) time(name string, perOp int, op func() error) {
	unit := units[name]
	scale, known := unitsPerSecond[unit]
	if !known && p.err == nil {
		p.err = fmt.Errorf("probe %s: %q is not a unit of time", name, unit)
	}
	samples := p.sample(name, op)
	for i := range samples {
		samples[i] *= scale / float64(perOp)
	}
	p.out[name] = summarize(unit, samples)
}

// rate records the median throughput of op, which moves bytes per call.
func (p *prober) rate(name string, bytes int64, op func() error) {
	samples := p.sample(name, op)
	for i := range samples {
		samples[i] = float64(bytes) / 1e6 / samples[i]
	}
	p.out[name] = summarize(units[name], samples)
}

// must folds a fixture-building error into the prober.
func (p *prober) must(err error) bool {
	if err != nil && p.err == nil {
		p.err = err
	}
	return p.err == nil
}

// runProbes runs every probe for the workload.
func (b *bench) runProbes() (map[string]summary, error) {
	p := &prober{out: map[string]summary{}}
	b.probeAlgebra(p)
	b.probeBigInt(p)
	b.probeTTE(p)
	b.probeProofs(p)
	b.probePKE(p)
	probeBoard(p)
	p.time("parallel.dispatch_ns", 4096, func() error {
		return parallel.For(context.Background(), 0, 4096, func(int) error { return nil })
	})
	return p.out, p.err
}

// probeAlgebra covers field, poly and sharing at the workload's packed
// degrees: t+k−1 for sharing out, t+2(k−1) for opening a product.
func (b *bench) probeAlgebra(p *prober) {
	n, t, k := b.w.N, b.w.T, b.w.K
	shareDeg, openDeg := t+k-1, t+2*(k-1)

	x, y := field.MustRandomVec(shareDeg+1), field.MustRandomVec(shareDeg+1)
	p.time("field.inner_product_ns", 1, func() error { sink = field.InnerProduct(x, y); return nil })
	rows := make([][]field.Element, n)
	for i := range rows {
		rows[i] = field.MustRandomVec(shareDeg + 1)
	}
	p.time("field.matvec_us", 1, func() error { sink = field.MatVecLazy(rows, x); return nil })
	xs := sharing.ShareIndexPoints(shareDeg + 1)
	p.time("poly.interpolate_us", 1, func() error {
		f, err := poly.Interpolate(xs, y)
		sink = f
		return err
	})

	secrets := field.MustRandomVec(k)
	p.time("sharing.share_packed_us", 1, func() error {
		shares, err := sharing.SharePacked(secrets, shareDeg, n)
		sink = shares
		return err
	})
	shares, err := sharing.SharePacked(secrets, openDeg, n)
	if !p.must(err) {
		return
	}
	p.time("sharing.reconstruct_packed_us", 1, func() error {
		got, err := sharing.ReconstructPacked(shares, openDeg, k)
		sink = got
		return err
	})
	// As many wrong shares as the committee can decode around, up to t.
	wrong := min(t, (n-openDeg-1)/2)
	bad := append([]sharing.Share(nil), shares...)
	for i := 0; i < wrong; i++ {
		bad[i].Value = bad[i].Value.Add(field.New(1))
	}
	p.time("sharing.reconstruct_robust_us", 1, func() error {
		got, err := sharing.ReconstructRobust(bad, openDeg, k, wrong)
		if err == nil && !field.EqualVec(got, secrets) {
			err = fmt.Errorf("robust reconstruction returned wrong secrets")
		}
		return err
	})
}

// probeBigInt covers modexp and paillier on the workload's probe key,
// with exponents as long as the modulus N, over Z_{N²}.
func (b *bench) probeBigInt(p *prober) {
	pk := &b.key.PublicKey
	randBelow := func(limit *big.Int) *big.Int {
		v, err := rand.Int(rand.Reader, limit)
		p.must(err)
		return v
	}
	base, exp := randBelow(pk.N2), randBelow(pk.N)
	if p.err != nil {
		return
	}
	p.time("modexp.exp_us", 1, func() error {
		v, err := modexp.ExpSigned(base, exp, pk.N2)
		sink = v
		return err
	})
	table := modexp.NewFixedBase(base, pk.N2, pk.N.BitLen())
	p.time("modexp.fixed_base_exp_us", 1, func() error { sink = table.Exp(exp); return nil })
	bases, exps := make([]*big.Int, b.w.T+1), make([]*big.Int, b.w.T+1)
	for i := range bases {
		bases[i], exps[i] = randBelow(pk.N2), randBelow(pk.N)
	}
	if p.err != nil {
		return
	}
	p.time("modexp.multi_exp_us", 1, func() error {
		v, err := modexp.MultiExp(pk.N2, bases, exps)
		sink = v
		return err
	})

	m := randBelow(pk.N)
	p.time("paillier.encrypt_us", 1, func() error {
		c, err := pk.Encrypt(rand.Reader, m)
		sink = c
		return err
	})
	c, err := pk.Encrypt(rand.Reader, m)
	if !p.must(err) {
		return
	}
	p.time("paillier.decrypt_us", 1, func() error {
		got, err := b.key.Decrypt(c)
		if err == nil && got.Cmp(m) != 0 {
			err = fmt.Errorf("paillier decryption returned the wrong plaintext")
		}
		return err
	})
}

// probeTTE walks the threshold-encryption API of the workload's backend
// for a committee of its size.
func (b *bench) probeTTE(p *prober) {
	if p.err != nil {
		return
	}
	n, t, te := b.w.N, b.w.T, b.te
	p.time("tte.keygen_ms", 1, func() error {
		pk, _, err := te.KeyGen(n, t)
		sink = pk
		return err
	})
	pk, shares, err := te.KeyGen(n, t)
	if !p.must(err) {
		return
	}
	bound := field.ModulusBig()
	m := field.MustRandom().Big()
	p.time("tte.encrypt_us", 1, func() error {
		ct, err := te.Encrypt(pk, m, bound)
		sink = ct
		return err
	})
	cts := make([]tte.Ciphertext, n)
	coeffs := make([]*big.Int, n)
	for i := range cts {
		if cts[i], err = te.Encrypt(pk, m, bound); !p.must(err) {
			return
		}
		coeffs[i] = field.MustRandom().Big()
	}
	p.time("tte.eval_us", 1, func() error {
		ct, err := te.Eval(pk, cts, coeffs)
		sink = ct
		return err
	})
	ct := cts[0]
	p.time("tte.partial_decrypt_us", 1, func() error {
		part, err := te.PartialDecrypt(pk, shares[0], ct)
		sink = part
		return err
	})
	parts := make([]tte.PartialDec, t+1)
	for i := range parts {
		if parts[i], err = te.PartialDecrypt(pk, shares[i], ct); !p.must(err) {
			return
		}
	}
	p.time("tte.combine_us", 1, func() error {
		got, err := te.Combine(pk, ct, parts)
		if err == nil && got.Cmp(m) != 0 {
			err = fmt.Errorf("threshold decryption returned the wrong plaintext")
		}
		return err
	})
	p.time("tte.reshare_ms", 1, func() error {
		subs, err := te.Reshare(pk, shares[0])
		sink = subs
		return err
	})
	toFirst := make([]tte.SubShare, t+1)
	for i := range toFirst {
		subs, err := te.Reshare(pk, shares[i])
		if !p.must(err) {
			return
		}
		toFirst[i] = subs[0]
	}
	p.time("tte.recover_share_us", 1, func() error {
		sh, err := te.RecoverShare(pk, 1, toFirst)
		sink = sh
		return err
	})
	encoded, err := te.EncodeCiphertext(ct)
	if !p.must(err) {
		return
	}
	p.time("tte.ct_encode_us", 1, func() error {
		data, err := te.EncodeCiphertext(ct)
		sink = data
		return err
	})
	p.time("tte.ct_decode_us", 1, func() error {
		back, err := te.DecodeCiphertext(pk, bound, encoded)
		sink = back
		return err
	})
}

// probeProofs sets what a real proof of a correct partial decryption
// costs beside the attested proofs core posts, which cost a MAC: the gap
// is how far end-to-end times understate verification.
func (b *bench) probeProofs(p *prober) {
	if p.err != nil {
		return
	}
	th, err := tte.NewThreshold(b.key)
	if !p.must(err) {
		return
	}
	pk, shares, vk, err := th.KeyGenVerified(b.w.N, b.w.T)
	if !p.must(err) {
		return
	}
	ct, err := th.Encrypt(pk, field.MustRandom().Big(), field.ModulusBig())
	if !p.must(err) {
		return
	}
	part, err := th.PartialDecrypt(pk, shares[0], ct)
	if !p.must(err) {
		return
	}
	p.time("tte.prove_partial_us", 1, func() error {
		proof, err := th.ProvePartial(pk, shares[0], ct, part, vk)
		sink = proof
		return err
	})
	proof, err := th.ProvePartial(pk, shares[0], ct, part, vk)
	if !p.must(err) {
		return
	}
	p.time("tte.verify_partial_us", 1, func() error {
		if !th.VerifyPartial(pk, 1, ct, part, vk, proof) {
			return fmt.Errorf("honest partial-decryption proof rejected")
		}
		return nil
	})

	// The bare sigma protocol under it: equal exponents of two squares
	// modulo N², witness as long as N.
	n2 := b.key.N2
	square := func() *big.Int {
		r, err := rand.Int(rand.Reader, n2)
		p.must(err)
		if r == nil || r.Sign() == 0 {
			return big.NewInt(4)
		}
		return r.Mul(r, r).Mod(r, n2)
	}
	g1, g2 := square(), square()
	w, err := rand.Int(rand.Reader, b.key.N)
	if !p.must(err) {
		return
	}
	h1, err := modexp.ExpSigned(g1, w, n2)
	if !p.must(err) {
		return
	}
	h2, err := modexp.ExpSigned(g2, w, n2)
	if !p.must(err) {
		return
	}
	wBound := new(big.Int).Lsh(big.NewInt(1), uint(w.BitLen())+1)
	eq, err := nizk.ProveEqExp(n2, g1, g2, h1, h2, w, wBound)
	if !p.must(err) {
		return
	}
	p.time("nizk.verify_eqexp_us", 1, func() error {
		if !nizk.VerifyEqExp(n2, g1, g2, h1, h2, eq) {
			return fmt.Errorf("honest equal-exponent proof rejected")
		}
		return nil
	})

	auth, err := nizk.NewAuthority()
	if !p.must(err) {
		return
	}
	statement := nizk.NewStatement("probe").AddString("role-1").Bytes()
	p.time("nizk.attest_us", 1, func() error { sink = auth.Attest(statement); return nil })
	attested := auth.Attest(statement)
	p.time("nizk.verify_attested_us", 1, func() error {
		if !auth.Verify(statement, attested) {
			return fmt.Errorf("honest attested proof rejected")
		}
		return nil
	})
}

// probePKE encrypts what the protocol sends point to point most often:
// one encoded partial decryption.
func (b *bench) probePKE(p *prober) {
	if p.err != nil {
		return
	}
	p.time("pke.keygen_us", 1, func() error {
		pub, _, err := b.pke.GenerateKey()
		sink = pub
		return err
	})
	pk, shares, err := b.te.KeyGen(b.w.N, b.w.T)
	if !p.must(err) {
		return
	}
	ct, err := b.te.Encrypt(pk, big.NewInt(1), field.ModulusBig())
	if !p.must(err) {
		return
	}
	part, err := b.te.PartialDecrypt(pk, shares[0], ct)
	if !p.must(err) {
		return
	}
	msg, err := b.te.EncodePartial(part)
	if !p.must(err) {
		return
	}
	pub, sec, err := b.pke.GenerateKey()
	if !p.must(err) {
		return
	}
	p.time("pke.encrypt_us", 1, func() error {
		env, err := pub.Encrypt(msg)
		sink = env
		return err
	})
	env, err := pub.Encrypt(msg)
	if !p.must(err) {
		return
	}
	p.time("pke.decrypt_us", 1, func() error {
		got, err := sec.Decrypt(env)
		sink = got
		return err
	})
}

// probeBoard covers the entry codec, the loopback board service and the
// monitor on the board of one small Sim run, the same for every workload:
// these layers do not depend on what the committees computed. Writing
// (post) and reading (fetch, tail) are separate probes so that a gain for
// one paid for by the other shows.
func probeBoard(p *prober) {
	if p.err != nil {
		return
	}
	serve := func() (*transport.Server, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		return transport.Serve(ln), nil
	}
	server, err := serve()
	if !p.must(err) {
		return
	}
	defer server.Close()
	if !p.must(mirroredRun(server.Addr())) {
		return
	}
	entries := server.Entries(0)
	encoded := make([][]byte, len(entries))
	var frameBytes, payloadBytes int64
	for i, e := range entries {
		if encoded[i], err = e.MarshalBinary(); !p.must(err) {
			return
		}
		frameBytes += int64(len(encoded[i]))
		payloadBytes += int64(e.Size)
	}

	p.rate("transport.entry_encode_mb_s", frameBytes, func() error {
		for _, e := range entries {
			data, err := e.MarshalBinary()
			if err != nil {
				return err
			}
			sink = data
		}
		return nil
	})
	p.rate("transport.entry_decode_mb_s", frameBytes, func() error {
		var e transport.Entry
		for _, data := range encoded {
			if err := e.UnmarshalBinary(data); err != nil {
				return err
			}
		}
		return nil
	})
	p.rate("transport.fetch_mb_s", payloadBytes, func() error {
		got, err := transport.Fetch(server.Addr(), 0)
		if err == nil && len(got) != len(entries) {
			err = fmt.Errorf("fetch returned %d of %d entries", len(got), len(entries))
		}
		return err
	})
	p.rate("transport.tail_mb_s", payloadBytes, func() error {
		stream, stop, err := transport.Tail(server.Addr(), 0)
		if err != nil {
			return err
		}
		for i := 0; i < len(entries); i++ {
			if _, ok := <-stream; !ok {
				break
			}
		}
		return stop()
	})
	p.time("monitor.ingest_us", len(entries), func() error {
		mon := monitor.New()
		for _, e := range entries {
			mon.Ingest(e)
		}
		if got := mon.Snapshot().Entries; got != int64(len(entries)) {
			return fmt.Errorf("monitor counted %d of %d entries", got, len(entries))
		}
		return nil
	})

	// Posts go to a server of their own: it keeps what it is sent.
	postServer, err := serve()
	if !p.must(err) {
		return
	}
	defer postServer.Close()
	client, err := transport.Dial(postServer.Addr())
	if !p.must(err) {
		return
	}
	defer client.Close()
	post := func(payload []byte) func() error {
		return func() error {
			_, err := client.Post("probe", comm.PhaseOnline, comm.CatMu, payload)
			return err
		}
	}
	p.time("transport.post_rtt_us", 1, post(make([]byte, 1<<10)))
	p.rate("transport.post_mb_s", 256<<10, post(make([]byte, 256<<10)))
}

// mirroredRun executes one small Sim protocol run mirrored into the board
// server at addr, leaving a realistic board there.
func mirroredRun(addr string) error {
	circ, err := circuit.WideMul(8, 2)
	if err != nil {
		return err
	}
	proto, err := core.New(core.Params{N: 16, T: 3, K: 4, TE: tte.NewSim(2048), PKE: pke.NewSim()}, circ, nil)
	if err != nil {
		return err
	}
	mirror, err := transport.AttachMirror(proto.Board(), addr)
	if err != nil {
		return err
	}
	defer mirror.Close()
	inputs := map[int][]field.Element{}
	for _, client := range circ.Clients() {
		inputs[client] = field.MustRandomVec(circ.InputCount(client))
	}
	if _, err := proto.Run(inputs); err != nil {
		return err
	}
	if n := mirror.Errors(); n != 0 {
		return fmt.Errorf("%d mirrored posts failed", n)
	}
	return nil
}
