// Package costmodel predicts the exact byte counts the instrumented
// protocols post, from the committee parameters (n, t, k), the circuit
// shape, and the backend's message sizes.
//
// The model exists because Table 1's committee sizes reach 40 000 roles:
// executing even the ideal-backend protocol there would allocate Θ(n²)
// envelope objects per batch. The test suite validates the model against
// measured runs byte-for-byte at committee sizes up to the dozens, which
// makes the Table-1-scale projections (experiment E2) trustworthy: the
// model sums the very postings the protocols make, each of the length
// internal/postlen gives it, the function their writers size it with.
//
// The packed protocol slot-packs what one reader opens in one step, so its
// opening counts are not closed forms: the model takes them from the planner
// the driver runs (slotpack.Count) on the same static widths (Shape.Opened).
package costmodel

import (
	"yosompc/internal/postlen"
	"yosompc/internal/slotpack"
)

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
// key of capacity bits (postlen.Sizes.SlotBits).
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
func Core(n, t, k int, shape Shape, z postlen.Sizes) Phases {
	return CoreWith(n, t, k, shape, z, CoreOptions{})
}

// CoreWith predicts byte counts for a protocol variant.
func CoreWith(n, t, k int, shape Shape, z postlen.Sizes, opts CoreOptions) Phases {
	N := int64(n)
	// Slot-packed opening counts, from the driver's own planner: OffDec's
	// ε groups, the groups Step 5 seals to the input clients, the layer
	// members' groups (one member's shares per layer, times n members) that
	// Step 6 seals to KFFs and those OnC1 seals to role keys, and the output
	// groups.
	groups := func(lists ...[]slotpack.Run) (total int) {
		for _, l := range lists {
			total += int(slotpack.Count(l, z.SlotBits))
		}
		return total
	}
	decGroups := groups(shape.Opened.Eps)
	inGroups := groups(shape.Opened.Inputs...)
	// kffCount counts the KFFs, one per role of a layer whose shares take
	// more than one group (slotpack.Lists.NeedsKFF); the naive approach
	// mints none. A tsk member answers a layer role's Re-encrypts only in
	// that role's window, s of the layer's n roles, so what it seals to a
	// layer is s roles' worth: kffGroups and kffSeals for OffRe and OnC1
	// where the layer has KFFs, directGroups for OnC1 where it has none.
	s := postlen.Window(n, t, t+2*(k-1)+1)
	var kffGroups, kffSeals, directGroups, kffCount int
	for l, layer := range shape.Opened.Layers {
		if !opts.NoKFF && shape.Opened.NeedsKFF(l, z.SlotBits) {
			kffGroups += s * groups(layer)
			kffSeals += s
			kffCount += n
		} else {
			directGroups += s * groups(layer)
		}
	}
	var earlyGroups, lateGroups int // output groups OffDec and OnC1 seal
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

	setup := int64(z.Ciphertext/2 + 32)                   // tpk + crs
	setup += int64(shape.Clients * z.RoleKey)             // client role keys
	setup += int64(kffCount * (z.RoleKey + z.Ciphertext)) // KFF publications
	setup += int64(postlen.Posting{KeyShares: n}.Len(z))  // dealer tsk delivery

	// OffRe is formed only when some layer has KFFs; OffDec hands tsk to
	// it, or straight to OnC1.
	offline := 3 * N * int64(z.RoleKey) // OffR, OffDec and OnC1's role keys
	if shape.Muls > 0 {
		// OffB: role keys, b-parts and one c-part per gate.
		offline += N*int64(z.RoleKey) + attested(n, postlen.Posting{Ciphertexts: beaver + shape.Muls}, z)
	}
	offline += attested(n, postlen.Posting{Ciphertexts: random}, z) // wire randomness and helpers
	// OffDec: partials for the ε groups, one envelope per input-wire λ group
	// and per early output group to its client (Step 5), and tsk resharing.
	offline += attested(n, postlen.Posting{Partials: decGroups, Sealed: inGroups + earlyGroups, SubShares: n}, z)
	if kffCount > 0 {
		// OffRe: role keys, one envelope per packed-share group of every
		// member of a layer with KFFs in its window (Step 6), and tsk
		// resharing to OnC1.
		offline += N*int64(z.RoleKey) + attested(n, postlen.Posting{Sealed: kffGroups, SubShares: n}, z)
	}

	online := int64(shape.Depth) * N * int64(z.RoleKey) // layer committees' role keys
	// OnC1: future key distribution — a KFF secret per role of a layer with
	// KFFs, the packed-share groups of every other layer member under its
	// role key, each in its window — and one envelope per late output group.
	online += attested(n, postlen.Posting{Sealed: kffSeals + directGroups + lateGroups}, z)
	// Client inputs: μ per input wire + one proof per input client.
	online += int64(postlen.Posting{Elements: shape.Inputs}.Len(z) + shape.InputClients*z.Proof)
	// μ layers: one element per batch per role, plus one proof per role
	// unless robust decoding replaces verification.
	for _, bl := range shape.BatchesPerLayer {
		online += attested(n, postlen.Posting{Elements: bl}, z)
		if opts.Robust {
			online -= N * int64(z.Proof)
		}
	}

	return Phases{Setup: setup, Offline: offline, Online: online}
}

// Baseline predicts the CDN-style baseline's (internal/baseline) byte
// counts for an all-honest run. It takes the k = 1 shape, where
// BatchesPerLayer[l] counts the multiplications of layer l+1: the tests'
// ShapeOf(c, n, t, 1) for a circuit, or a FreshShape with BatchesPerLayer
// set to its muls.
func Baseline(n, t int, shape Shape, z postlen.Sizes) Phases {
	N := int64(n)
	setup := int64(z.Ciphertext/2 + shape.Clients*z.RoleKey) // tpk + client keys
	setup += int64(postlen.Posting{KeyShares: n}.Len(z))     // dealer tsk delivery

	var offline int64
	if shape.Muls > 0 {
		offline += 2 * N * int64(z.RoleKey)                                     // bOff1 and bOff2
		offline += attested(n, postlen.Posting{Ciphertexts: shape.Muls}, z)     // bOff1: a-parts
		offline += attested(n, postlen.Posting{Ciphertexts: 2 * shape.Muls}, z) // bOff2: b- and c-parts
	}

	online := int64(shape.Depth+1) * N * int64(z.RoleKey) // layer + output committee keys
	// Client inputs: one ciphertext per input wire + one proof per
	// client with inputs.
	online += int64(postlen.Posting{Ciphertexts: shape.Inputs}.Len(z) + shape.InputClients*z.Proof)
	// Each layer: 2 partials per gate per role and the resharing.
	for _, lm := range shape.BatchesPerLayer {
		online += attested(n, postlen.Posting{Partials: 2 * lm, SubShares: n}, z)
	}
	// Output committee: one envelope per output per role.
	online += attested(n, postlen.Posting{Sealed: shape.Outputs}, z)

	return Phases{Setup: setup, Offline: offline, Online: online}
}

// attested is what a committee of n posts at an attested step: n postings
// p, each with its proof.
func attested(n int, p postlen.Posting, z postlen.Sizes) int64 {
	return int64(n) * int64(p.Len(z)+z.Proof)
}
