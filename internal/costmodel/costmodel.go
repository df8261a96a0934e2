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
	"yosompc/internal/circuit"
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
	// PKEOverhead is the envelope overhead of the role/KFF encryption.
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
	// protocol opens in one step — what the driver plans its slot-packed
	// openings from, for the same n, t and k the prediction is asked for.
	// The baseline does not pack and ignores it.
	Opened slotpack.Lists
}

// Batches returns the total number of batches.
func (s Shape) Batches() int {
	total := 0
	for _, b := range s.BatchesPerLayer {
		total += b
	}
	return total
}

// ShapeOf extracts a Shape from a circuit for committee size n, corruption
// bound t and packing factor k (the baseline's shape is ShapeOf(c, n, t, 1)).
func ShapeOf(c *circuit.Circuit, n, t, k int) Shape {
	s := Shape{
		Muls:   c.NumMul(),
		Depth:  c.Depth(),
		Opened: slotpack.ListsOf(c, n, t, k),
	}
	for _, client := range c.Clients() {
		s.Clients++
		n := c.InputCount(client)
		s.Inputs += n
		if n > 0 {
			s.InputClients++
		}
		s.Outputs += len(c.OutputGates(client))
	}
	s.BatchesPerLayer = make([]int, c.Depth())
	for _, mb := range c.MulBatches(k) {
		s.BatchesPerLayer[mb.Layer-1]++
	}
	return s
}

// FreshShape is the Shape of a circuit known only by its counts, every wire
// opened taken as a fresh one: inputs[c] and outputs[c] are client c's input
// and output gates, muls[l] the multiplication gates of layer l+1.
func FreshShape(n, t, k int, inputs, outputs, muls []int) Shape {
	s := Shape{
		Clients:         len(inputs),
		Depth:           len(muls),
		BatchesPerLayer: make([]int, len(muls)),
		Opened:          slotpack.FreshLists(n, t, k, inputs, outputs, muls),
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

// Total returns the sum over phases.
func (p Phases) Total() int64 { return p.Setup + p.Offline + p.Online }

// CoreOptions selects protocol variants for the prediction.
type CoreOptions struct {
	// NoKFF models the §3.2 naive ablation (online re-encryption).
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
	N := int64(n)
	T := int64(t)
	batches := int64(shape.Batches())
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
	outGroups := groups(shape.Opened.Outputs...)

	var setup int64
	setup += int64(z.Ciphertext)/2 + 32              // tpk + crs
	setup += int64(shape.Clients) * int64(z.RoleKey) // client role keys
	kffCount := depth*N + int64(shape.InputClients)  // layer roles + input clients
	if !opts.NoKFF {
		setup += kffCount * int64(z.RoleKey+z.Ciphertext) // KFF publications
	}
	setup += N * int64(z.PKEOverhead+z.KeyShare) // dealer tsk delivery (sealed envelopes)

	var offline int64
	offline += 6 * N * int64(z.RoleKey) // six offline committees' role keys (incl. bridge)
	if muls > 0 {
		offline += N*muls*int64(z.Ciphertext) + N*int64(z.Proof)   // beaver-a
		offline += N*2*muls*int64(z.Ciphertext) + N*int64(z.Proof) // beaver-bc
	}
	targets := int64(shape.Inputs) + muls
	offline += N*(targets+3*T*batches)*int64(z.Ciphertext) + N*int64(z.Proof) // wire randomness + helpers
	// OffDec: partials for the ε/δ groups + resharing to OffRe.
	offline += N*(decGroups*int64(z.Partial)+N*envS) + N*int64(z.Proof)
	if opts.NoKFF {
		// Naive mode: OffRe only passes tsk onward.
		offline += N*N*envS + N*int64(z.Proof)
	} else {
		// OffRe (steps 5–6): one envelope per input-wire λ group and per
		// packed-share group of every layer member + tsk resharing to the
		// bridge committee.
		offline += N*(reGroups*envP+N*envS) + N*int64(z.Proof)
	}
	// Bridge committee: tsk hand-off to OnC1 at the boundary.
	offline += N*N*envS + N*int64(z.Proof)

	var online int64
	online += (2 + depth) * N * int64(z.RoleKey) // online committees' role keys
	if opts.NoKFF {
		// Naive mode: OnC1 re-encrypts everything under role keys online.
		online += N*(reGroups*envP+N*envS) + N*int64(z.Proof)
	} else {
		// OnC1 future key distribution + resharing to OnOut.
		online += N*(kffCount*envP+N*envS) + N*int64(z.Proof)
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
	// Output: one envelope per output group per role.
	online += N*outGroups*envP + N*int64(z.Proof)

	return Phases{Setup: setup, Offline: offline, Online: online}
}

// Baseline predicts the CDN-style baseline's (internal/baseline) byte
// counts for an all-honest run.
func Baseline(n, t int, shape Shape, z Sizes) Phases {
	envP := int64(z.PKEOverhead + z.Partial)
	envS := int64(z.PKEOverhead + z.SubShare)
	N := int64(n)
	muls := int64(shape.Muls)
	depth := int64(shape.Depth)

	var setup int64
	setup += int64(z.Ciphertext) / 2                 // tpk
	setup += int64(shape.Clients) * int64(z.RoleKey) // client keys
	setup += N * int64(z.PKEOverhead+z.KeyShare)     // dealer tsk delivery (sealed envelopes)

	var offline int64
	if muls > 0 {
		offline += 2 * N * int64(z.RoleKey)                        // two Beaver committees
		offline += N*muls*int64(z.Ciphertext) + N*int64(z.Proof)   // beaver-a
		offline += N*2*muls*int64(z.Ciphertext) + N*int64(z.Proof) // beaver-bc
	}

	var online int64
	online += (depth + 1) * N * int64(z.RoleKey) // layer + output committee keys
	// Client inputs: one ciphertext per input wire + one proof per
	// client with inputs.
	online += int64(shape.Inputs)*int64(z.Ciphertext) + int64(shape.InputClients)*int64(z.Proof)
	// Each layer: 2 partials per gate per role + resharing + proof.
	mulsPerLayer := perLayerMuls(shape)
	for _, lm := range mulsPerLayer {
		online += N*(2*int64(lm)*int64(z.Partial)+N*envS) + N*int64(z.Proof)
	}
	// Output committee: one envelope per output per role + proof.
	online += N*int64(shape.Outputs)*envP + N*int64(z.Proof)

	return Phases{Setup: setup, Offline: offline, Online: online}
}

// perLayerMuls recovers the per-layer gate counts from BatchesPerLayer
// when the shape was extracted with k=1, or approximates by distributing
// Muls across Depth otherwise. For exact baseline predictions extract the
// shape with ShapeOf(c, 1).
func perLayerMuls(shape Shape) []int {
	out := make([]int, len(shape.BatchesPerLayer))
	copy(out, shape.BatchesPerLayer)
	sum := 0
	for _, v := range out {
		sum += v
	}
	if sum == shape.Muls {
		return out
	}
	// Approximate: spread evenly.
	if shape.Depth == 0 {
		return nil
	}
	out = make([]int, shape.Depth)
	rem := shape.Muls
	for i := range out {
		out[i] = rem / (shape.Depth - i)
		rem -= out[i]
	}
	return out
}
