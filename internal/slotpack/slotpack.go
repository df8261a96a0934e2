// Package slotpack opens several values with one partial decryption. The
// MPC runs over F_p with p = 2^61 − 1 while a threshold plaintext lives in
// Z_N, thousands of bits wide, so the ciphertexts one reader opens in one
// committee step are combined — "everyone computes TEval" — into
//
//	C = Σ_l 2^{off_l}·c_l,   off_0 = 0,  off_{l+1} = off_l + w_l,
//
// the committee runs one TPDec on C, and the reader splits the one opened
// integer at the offsets. Slot l is w_l bits wide and holds a value below
// 2^{w_l}, so no slot carries into its neighbour.
//
// The layout is a function of public parameters alone: the widths are the
// bit lengths of static worst-case bounds (Bounds, Lists), Plan fills groups
// greedily up to the key's capacity, and every party recomputes the same
// plan. Widths are never taken from a ciphertext's run-time Bound(): that
// depends on how many members' contributions verified and on opened ε
// values, and a layout that moved with them would make routing, byte counts
// and the cost model depend on the run. The run-time bound is only checked
// against the static width (Pack), because a slot overflow is a wrong answer.
package slotpack

import (
	"errors"
	"fmt"
	"math/big"

	"yosompc/internal/tte"
)

// ErrSlotOverflow reports a ciphertext whose run-time bound does not fit the
// slot the static plan gave it.
var ErrSlotOverflow = errors.New("slotpack: plaintext bound exceeds its slot")

// Capacity is how many plaintext bits one group may use under a key whose
// largest plaintext bound is maxPlaintext (tte.PublicKey.MaxPlaintext): a
// group of that many bits is below 2^Capacity ≤ maxPlaintext.
func Capacity(maxPlaintext *big.Int) int { return maxPlaintext.BitLen() - 1 }

// Run is Count consecutive values of one slot width.
type Run struct {
	Width int
	Count int64
}

// Expand writes runs out value by value.
func Expand(runs []Run) []int {
	var n int64
	for _, r := range runs {
		n += r.Count
	}
	out := make([]int, 0, n)
	for _, r := range runs {
		for i := int64(0); i < r.Count; i++ {
			out = append(out, r.Width)
		}
	}
	return out
}

// appendRun appends one value of the given width, extending the last run when
// the width repeats.
func appendRun(runs []Run, width int) []Run {
	if n := len(runs); n > 0 && runs[n-1].Width == width {
		runs[n-1].Count++
		return runs
	}
	return append(runs, Run{Width: width, Count: 1})
}

// filler is the greedy planner's state: values go into the open group while
// they fit, the first that does not opens the next one. A value wider than
// the capacity is a group of its own that nothing joins.
type filler struct {
	capacity int
	// free is how many bits the open group has left; −1 when no group is
	// open to further values.
	free int
}

// add places count values of one width and returns how many groups that
// opened.
func (f *filler) add(width int, count int64) (opened int64) {
	switch {
	case count <= 0:
		return 0
	case width > f.capacity:
		f.free = -1
		return count
	case width == 0:
		// A zero-width slot (a ciphertext whose bound is 0) takes no room.
		if f.free < 0 {
			f.free = f.capacity
			return 1
		}
		return 0
	}
	if f.free >= width {
		fit := min(count, int64(f.free/width))
		f.free -= int(fit) * width
		count -= fit
	}
	if count == 0 {
		return 0
	}
	per := int64(f.capacity / width)
	opened = (count + per - 1) / per
	f.free = f.capacity - int(count-(opened-1)*per)*width
	return opened
}

// Group is one planned opening: the consecutive values Start, Start+1, … of
// the planned list, value Start+l in slot l of width Widths[l].
type Group struct {
	Start  int
	Widths []int
}

// Plan packs a list of slot widths, in order, into groups of at most capacity
// bits. It is the one layout rule: core packs by it and costmodel counts by
// it (Count). Widths views the argument.
func Plan(widths []int, capacity int) []Group {
	f := filler{capacity: capacity, free: -1}
	var groups []Group
	for i, w := range widths {
		if f.add(w, 1) == 1 {
			groups = append(groups, Group{Start: i})
		}
		g := &groups[len(groups)-1]
		g.Widths = widths[g.Start : i+1]
	}
	return groups
}

// Count is len(Plan(Expand(runs), capacity)) without writing the list out.
func Count(runs []Run, capacity int) int64 {
	f := filler{capacity: capacity, free: -1}
	var groups int64
	for _, r := range runs {
		groups += f.add(r.Width, r.Count)
	}
	return groups
}

// Pack forms one group's ciphertext Σ_l 2^{off_l}·cts[l] by Horner's rule
// through TEval: Σ_{l<last} widths[l] squarings, at most one capacity's worth.
// A group of one is its ciphertext, untouched. A ciphertext whose run-time
// bound is wider than its slot is refused.
func Pack(te tte.Scheme, pk tte.PublicKey, cts []tte.Ciphertext, widths []int) (tte.Ciphertext, error) {
	if len(cts) == 0 || len(cts) != len(widths) {
		return nil, fmt.Errorf("slotpack: %d ciphertexts for %d slots", len(cts), len(widths))
	}
	for l, ct := range cts {
		if got := ct.Bound().BitLen(); got > widths[l] {
			return nil, fmt.Errorf("%w: slot %d is %d bits wide, the ciphertext's bound has %d", ErrSlotOverflow, l, widths[l], got)
		}
	}
	acc := cts[len(cts)-1]
	coeffs := []*big.Int{big.NewInt(1), new(big.Int)}
	for l := len(cts) - 2; l >= 0; l-- {
		coeffs[1].SetInt64(0).SetBit(coeffs[1], widths[l], 1)
		var err error
		if acc, err = te.Eval(pk, []tte.Ciphertext{cts[l], acc}, coeffs); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// Split cuts a group's opened integer at the slot offsets. The values are the
// integer plaintexts; the caller reduces them into the field. An integer with
// bits beyond the last slot is not a packing of these slots and is refused.
func Split(v *big.Int, widths []int) ([]*big.Int, error) {
	out := make([]*big.Int, len(widths))
	rest := new(big.Int).Set(v)
	mask := new(big.Int)
	for l, w := range widths {
		mask.SetInt64(0).SetBit(mask, w, 1).Sub(mask, one)
		out[l] = new(big.Int).And(rest, mask)
		rest.Rsh(rest, uint(w))
	}
	if rest.Sign() != 0 {
		return nil, fmt.Errorf("%w: the opened integer runs past its %d slots", ErrSlotOverflow, len(widths))
	}
	return out, nil
}

var one = big.NewInt(1)
