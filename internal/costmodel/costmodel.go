// Package costmodel predicts the exact byte counts the instrumented
// protocols post, as closed-form functions of the committee parameters
// (n, t, k), the circuit shape, and the backend's message sizes.
//
// The model exists because Table 1's committee sizes reach 40 000 roles:
// executing even the ideal-backend protocol there would allocate Θ(n²)
// envelope objects per batch. The test suite validates the model against
// measured runs byte-for-byte at committee sizes up to the dozens, which
// makes the Table-1-scale projections (experiment E2) trustworthy: the
// formulas below are counts of the very postings the driver makes.
//
// The packed protocol slot-packs what one reader opens in one step, so its
// opening counts are not closed forms: the model takes them from the planner
// the driver runs (slotpack.Count) on the same static widths (Shape.Opened).
package costmodel

import (
	"yosompc/internal/field"
	"yosompc/internal/nizk"
	"yosompc/internal/pke"
	"yosompc/internal/slotpack"
	"yosompc/internal/tte"
)

// Sizes are the wire sizes (bytes) of one backend configuration.
type Sizes struct {
	// Ciphertext is a threshold-encryption ciphertext (≈ |N²|).
	Ciphertext int
	// Partial is a partial decryption (≈ |N²|).
	Partial int
	// SubShare is a tsk resharing subshare.
	SubShare int
	// KeyShare is a tsk key share.
	KeyShare int
	// PostingKey is the posting key a posting that seals anything carries
	// once, and PKEOverhead what each envelope in it adds to its message.
	PostingKey  int
	PKEOverhead int
	// RoleKey is a published role public key.
	RoleKey int
	// Proof is one attested NIZK proof.
	Proof int
	// Element is one field element.
	Element int
	// SlotBits is how many plaintext bits one slot-packed opening holds
	// (slotpack.Capacity of the key).
	SlotBits int
}

// SimSizes returns the sizes of the ideal backends for a modelled
// threshold-Paillier modulus of the given bit length, matching
// tte.NewSim(bits) + pke.NewSim().
func SimSizes(bits int) Sizes {
	te := tte.NewSim(bits)
	return Sizes{
		Ciphertext:  te.CiphertextSize(),
		Partial:     te.PartialSize(),
		SubShare:    te.SubShareSize(),
		KeyShare:    te.KeyShareSize(),
		PostingKey:  pke.PostingKeySize,
		PKEOverhead: pke.EnvelopeOverhead,
		RoleKey:     pke.PublicKeySize,
		Proof:       nizk.AttestedProofSize,
		Element:     field.ElementSize,
		SlotBits:    slotpack.Capacity(te.MaxPlaintext()),
	}
}

// Shape is the circuit-shape input of the model.
type Shape struct {
	// Inputs is the total number of input gates.
	Inputs int
	// InputClients is the number of clients contributing inputs.
	InputClients int
	// Clients is the total number of clients.
	Clients int
	// Outputs is the total number of output gates.
	Outputs int
	// Muls is the number of multiplication gates.
	Muls int
	// Depth is the multiplicative depth.
	Depth int
	// BatchesPerLayer[l] is the number of packed batches at layer l+1
	// for the chosen packing factor.
	BatchesPerLayer []int
	// Opened are the static slot widths of what each reader of the packed
	// protocol opens in one step, the extraction m′ they are the widths of
	// and the blocks it extracts — what internal/core plans its slot-packed
	// openings and its contributions from, for the same n, t, k and key
	// capacity the prediction is asked for. The baseline
	// neither packs nor extracts and ignores it.
	Opened slotpack.Lists
	// Late[c] is set when the c-th client's output λ's may not reach it
	// before the inputs are posted (circuit.EarlyOutputs), so that the
	// packed protocol's OnOut seals them online. Nil: every output is early,
	// as every fresh one is.
	Late []bool
}

// FreshShape is the Shape of a circuit known only by its counts, every wire
// opened taken as a fresh one: inputs[c] and outputs[c] are client c's input
// and output gates, muls[l] the multiplication gates of layer l+1, under a
// key of capacity bits (Sizes.SlotBits).
func FreshShape(n, t, k, capacity int, inputs, outputs, muls []int) Shape {
	s := Shape{
		Clients:         len(inputs),
		Depth:           len(muls),
		BatchesPerLayer: make([]int, len(muls)),
		Opened:          slotpack.FreshLists(n, t, k, capacity, inputs, outputs, muls),
	}
	for c, in := range inputs {
		s.Inputs += in
		if in > 0 {
			s.InputClients++
		}
		s.Outputs += outputs[c]
	}
	for l, m := range muls {
		s.Muls += m
		s.BatchesPerLayer[l] = (m + k - 1) / k
	}
	return s
}

// Phases is a per-phase byte prediction.
type Phases struct {
	Setup, Offline, Online int64
}

// CoreOptions selects protocol variants for the prediction.
type CoreOptions struct {
	// NoKFF models the §3.2 naive approach, which the driver does not run:
	// no KFFs, and OnC1 re-encrypts the input λ's and packed shares online
	// in place of the KFF secrets. core's TestNaiveModelFromKFFRun checks it
	// against the terms it moves, measured on a KFF run.
	NoKFF bool
	// Robust models IT-GOD μ layers (no per-layer proofs).
	Robust bool
}

// Core predicts the packed protocol's (internal/core) byte counts for an
// all-honest run in the default configuration.
func Core(n, t, k int, shape Shape, z Sizes) Phases {
	return CoreWith(n, t, k, shape, z, CoreOptions{})
}

// CoreWith predicts byte counts for a protocol variant.
func CoreWith(n, t, k int, shape Shape, z Sizes, opts CoreOptions) Phases {
	envP := int64(z.PKEOverhead + z.Partial)  // envelope carrying a partial decryption
	envS := int64(z.PKEOverhead + z.SubShare) // envelope carrying a tsk subshare
	key := int64(z.PostingKey)                // a tsk posting's key, ahead of its envelopes
	N := int64(n)
	muls := int64(shape.Muls)
	depth := int64(shape.Depth)
	// Slot-packed opening counts, from the driver's own planner: OffDec's
	// ε/δ groups, the groups steps 5–6 re-encrypt (each input client's λ's,
	// then one member's shares per layer, times n members), and the output
	// groups.
	groups := func(lists ...[]slotpack.Run) (total int64) {
		for _, l := range lists {
			total += slotpack.Count(l, z.SlotBits)
		}
		return total
	}
	decGroups := groups(shape.Opened.EpsDelta)
	reGroups := groups(shape.Opened.Inputs...) + N*groups(shape.Opened.Layers...)
	var earlyGroups, lateGroups int64 // output groups OffRe and OnOut seal
	late := false
	for c, l := range shape.Opened.Outputs {
		if c < len(shape.Late) && shape.Late[c] {
			lateGroups += groups(l)
			late = true
		} else {
			earlyGroups += groups(l)
		}
	}
	// One member's contributions at the run's m′: random to OffR (the wire
	// randomness and the Beaver a's), beaver to OffB.
	random, beaver := shape.Opened.Contributions()

	var setup int64
	setup += int64(z.Ciphertext)/2 + 32              // tpk + crs
	setup += int64(shape.Clients) * int64(z.RoleKey) // client role keys
	kffCount := depth*N + int64(shape.InputClients)  // layer roles + input clients
	if !opts.NoKFF {
		setup += kffCount * int64(z.RoleKey+z.Ciphertext) // KFF publications
	}
	setup += key + N*int64(z.PKEOverhead+z.KeyShare) // dealer tsk delivery (one posting of sealed envelopes)

	// Every offline and online tsk step below reshares or seals, so each of
	// its N postings carries a posting key.
	var offline int64
	offline += 4 * N * int64(z.RoleKey) // OffR, OffDec, OffRe and OnC1's role keys
	if muls > 0 {
		// OffB: role keys, b-parts and one c-part per gate.
		offline += N*int64(z.RoleKey) + N*(int64(beaver)+muls)*int64(z.Ciphertext) + N*int64(z.Proof)
	}
	offline += N*int64(random)*int64(z.Ciphertext) + N*int64(z.Proof) // wire randomness, helpers and Beaver a-parts
	// OffDec: partials for the ε/δ groups + resharing to OffRe.
	offline += N*(decGroups*int64(z.Partial)+key+N*envS) + N*int64(z.Proof)
	// OffRe: one envelope per early output group to its client and tsk
	// resharing to OnC1; steps 5–6 add one envelope per input-wire λ group
	// and per packed-share group of every layer member, unless the naive
	// approach leaves them to OnC1.
	sealedOffline := earlyGroups
	if !opts.NoKFF {
		sealedOffline += reGroups
	}
	offline += N*(key+sealedOffline*envP+N*envS) + N*int64(z.Proof)

	var online int64
	online += depth * N * int64(z.RoleKey) // layer committees' role keys
	// OnC1: future key distribution, or in the naive mode everything
	// re-encrypted under role keys; tsk resharing to OnOut, if formed.
	sealedOnC1 := kffCount
	if opts.NoKFF {
		sealedOnC1 = reGroups
	}
	var handOff int64
	if late {
		handOff = N
	}
	online += N*(keyIf(sealedOnC1+handOff, key)+sealedOnC1*envP+handOff*envS) + N*int64(z.Proof)
	if late {
		// OnOut: role keys and one envelope per late output group.
		online += N*int64(z.RoleKey) + N*(key+lateGroups*envP) + N*int64(z.Proof)
	}
	// Client inputs: μ per input wire + one proof per input client.
	online += int64(shape.Inputs)*int64(z.Element) + int64(shape.InputClients)*int64(z.Proof)
	// μ layers: one element per batch per role, plus one proof per role
	// unless robust decoding replaces verification.
	for _, bl := range shape.BatchesPerLayer {
		online += N * int64(bl) * int64(z.Element)
		if !opts.Robust {
			online += N * int64(z.Proof)
		}
	}

	return Phases{Setup: setup, Offline: offline, Online: online}
}

// Baseline predicts the CDN-style baseline's (internal/baseline) byte
// counts for an all-honest run. It takes the k = 1 shape, where
// BatchesPerLayer[l] counts the multiplications of layer l+1: the tests'
// ShapeOf(c, n, t, 1) for a circuit, or a FreshShape with BatchesPerLayer
// set to its muls.
func Baseline(n, t int, shape Shape, z Sizes) Phases {
	envP := int64(z.PKEOverhead + z.Partial)
	envS := int64(z.PKEOverhead + z.SubShare)
	key := int64(z.PostingKey)
	N := int64(n)
	muls := int64(shape.Muls)
	depth := int64(shape.Depth)
	outputs := int64(shape.Outputs)

	var setup int64
	setup += int64(z.Ciphertext) / 2                 // tpk
	setup += int64(shape.Clients) * int64(z.RoleKey) // client keys
	setup += key + N*int64(z.PKEOverhead+z.KeyShare) // dealer tsk delivery (one posting of sealed envelopes)

	var offline int64
	if muls > 0 {
		offline += 2 * N * int64(z.RoleKey)                        // bOff1 and bOff2
		offline += N*muls*int64(z.Ciphertext) + N*int64(z.Proof)   // bOff1: a-parts
		offline += N*2*muls*int64(z.Ciphertext) + N*int64(z.Proof) // bOff2: b- and c-parts
	}

	var online int64
	online += (depth + 1) * N * int64(z.RoleKey) // layer + output committee keys
	// Client inputs: one ciphertext per input wire + one proof per
	// client with inputs.
	online += int64(shape.Inputs)*int64(z.Ciphertext) + int64(shape.InputClients)*int64(z.Proof)
	// Each layer: 2 partials per gate per role + resharing + proof.
	for _, lm := range shape.BatchesPerLayer {
		online += N*(2*int64(lm)*int64(z.Partial)+key+N*envS) + N*int64(z.Proof)
	}
	// Output committee: one envelope per output per role + proof.
	online += N*(keyIf(outputs, key)+outputs*envP) + N*int64(z.Proof)

	return Phases{Setup: setup, Offline: offline, Online: online}
}

// keyIf is a posting's key when the posting seals any envelope.
func keyIf(envelopes, key int64) int64 {
	if envelopes > 0 {
		return key
	}
	return 0
}
