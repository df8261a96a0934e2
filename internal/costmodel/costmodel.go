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
	// packed protocol's OnC1 seals them after the input round. Nil: every
	// output is early, as every fresh one is.
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
	// NoKFF models the §3.2 naive approach for every layer: no KFFs, so no
	// OffRe committee, and OnC1 re-encrypts the packed shares online to the
	// layer roles' keys in place of the KFF secrets. The driver does so only
	// for a layer whose shares fit one group (slotpack.Lists.NeedsKFF),
	// where it costs the same online, and forms OffRe only when some layer
	// has KFFs. The input λ's go offline to the clients' setup keys in both
	// designs. core's TestNaiveModelFromKFFRun checks it against the terms
	// it moves, measured on a KFF run.
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
	// ε groups, the groups Step 5 seals to the input clients, the layer
	// members' groups (one member's shares per layer, times n members) that
	// Step 6 seals to KFFs and those OnC1 seals to role keys, and the output
	// groups.
	groups := func(lists ...[]slotpack.Run) (total int64) {
		for _, l := range lists {
			total += slotpack.Count(l, z.SlotBits)
		}
		return total
	}
	decGroups := groups(shape.Opened.Eps)
	inGroups := groups(shape.Opened.Inputs...)
	// kffCount counts the KFFs, one per role of a layer whose shares take
	// more than one group (slotpack.Lists.NeedsKFF); the naive approach
	// mints none.
	var kffGroups, directGroups, kffCount int64
	for l, layer := range shape.Opened.Layers {
		if !opts.NoKFF && shape.Opened.NeedsKFF(l, z.SlotBits) {
			kffGroups += N * groups(layer)
			kffCount += N
		} else {
			directGroups += N * groups(layer)
		}
	}
	var earlyGroups, lateGroups int64 // output groups OffDec and OnC1 seal
	for c, l := range shape.Opened.Outputs {
		if c < len(shape.Late) && shape.Late[c] {
			lateGroups += groups(l)
		} else {
			earlyGroups += groups(l)
		}
	}
	// One member's contributions at the run's m′: random to OffR (the wire
	// randomness and the packing helpers), beaver to OffB (the masks e).
	random, beaver := shape.Opened.Contributions()

	var setup int64
	setup += int64(z.Ciphertext)/2 + 32               // tpk + crs
	setup += int64(shape.Clients) * int64(z.RoleKey)  // client role keys
	setup += kffCount * int64(z.RoleKey+z.Ciphertext) // KFF publications
	setup += key + N*int64(z.PKEOverhead+z.KeyShare)  // dealer tsk delivery (one posting of sealed envelopes)

	// Every offline and online tsk step below reshares or seals, so each of
	// its N postings carries a posting key. OffRe is formed only when some
	// layer has KFFs; OffDec hands tsk to it, or straight to OnC1.
	offRe := kffCount > 0
	var offline int64
	offline += 3 * N * int64(z.RoleKey) // OffR, OffDec and OnC1's role keys
	if muls > 0 {
		// OffB: role keys, b-parts and one c-part per gate.
		offline += N*int64(z.RoleKey) + N*(int64(beaver)+muls)*int64(z.Ciphertext) + N*int64(z.Proof)
	}
	offline += N*int64(random)*int64(z.Ciphertext) + N*int64(z.Proof) // wire randomness and helpers
	// OffDec: partials for the ε groups, one envelope per input-wire λ group
	// and per early output group to its client (Step 5), and tsk resharing.
	offline += N*(decGroups*int64(z.Partial)+key+(inGroups+earlyGroups)*envP+N*envS) + N*int64(z.Proof)
	if offRe {
		// OffRe: role keys, one envelope per packed-share group of every
		// member of a layer with KFFs (Step 6), and tsk resharing to OnC1.
		offline += N*int64(z.RoleKey) + N*(key+kffGroups*envP+N*envS) + N*int64(z.Proof)
	}

	var online int64
	online += depth * N * int64(z.RoleKey) // layer committees' role keys
	// OnC1: future key distribution — a KFF secret per role of a layer with
	// KFFs, the packed-share groups of every other layer member under its
	// role key — and one envelope per late output group.
	sealedOnC1 := kffCount + directGroups + lateGroups
	online += N*(keyIf(sealedOnC1, key)+sealedOnC1*envP) + N*int64(z.Proof)
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
