package slotpack

import (
	"errors"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"yosompc/internal/circuit"
	"yosompc/internal/field"
	"yosompc/internal/paillier"
	"yosompc/internal/tte"
)

// sizes returns the number of values in each group of a plan and checks that
// the groups tile the list in order.
func sizes(t *testing.T, widths []int, capacity int) []int {
	t.Helper()
	var out []int
	next := 0
	for _, g := range Plan(widths, capacity) {
		if g.Start != next || len(g.Widths) == 0 {
			t.Fatalf("group starts at %d with %d slots, want start %d and at least one", g.Start, len(g.Widths), next)
		}
		if !reflect.DeepEqual(g.Widths, widths[g.Start:g.Start+len(g.Widths)]) {
			t.Fatalf("group at %d has widths %v", g.Start, g.Widths)
		}
		out = append(out, len(g.Widths))
		next += len(g.Widths)
	}
	if next != len(widths) {
		t.Fatalf("plan covers %d of %d values", next, len(widths))
	}
	return out
}

func TestPlan(t *testing.T) {
	periodic := make([]int, 0, 3*16)
	for b := 0; b < 16; b++ {
		periodic = append(periodic, 133, 133, 199)
	}
	for _, tc := range []struct {
		name     string
		widths   []int
		capacity int
		want     []int
	}{
		{"empty", nil, 100, nil},
		{"exact fit to the last bit", []int{40, 30, 30}, 100, []int{3}},
		{"one bit over splits", []int{40, 30, 31}, 100, []int{2, 1}},
		{"an over-wide value is alone", []int{10, 101, 10, 10}, 100, []int{1, 1, 2}},
		{"over-wide values in a row", []int{101, 200}, 100, []int{1, 1}},
		{"width 0 takes no room", []int{0, 100, 0, 0, 1}, 100, []int{4, 1}},
		{"width 0 alone", []int{0}, 100, []int{1}},
		{"width 0 does not join an over-wide value", []int{101, 0}, 100, []int{1, 1}},
		{"a value as wide as the capacity", []int{100, 100}, 100, []int{1, 1}},
		// sim_boardd_n64's layer: 16 batches of left/right/Γ at 133/133/199
		// bits in 2046-bit openings.
		{"periodic left/right/Γ", periodic, 2046, []int{13, 13, 12, 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := sizes(t, tc.widths, tc.capacity); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("group sizes %v, want %v", got, tc.want)
			}
		})
	}
}

// Count is the planner on a run-length-encoded list: for any list it agrees
// with the number of groups Plan lays out value by value.
func TestCountMatchesPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		capacity := 1 + rng.Intn(300)
		var runs []Run
		for r := rng.Intn(8); r > 0; r-- {
			width := rng.Intn(capacity + 20)
			if rng.Intn(6) == 0 {
				width = 0
			}
			runs = append(runs, Run{Width: width, Count: int64(rng.Intn(40))})
		}
		widths := Expand(runs)
		if got, want := Count(runs, capacity), int64(len(Plan(widths, capacity))); got != want {
			t.Fatalf("capacity %d, runs %v: Count = %d, Plan lays out %d groups", capacity, runs, got, want)
		}
		for _, g := range Plan(widths, capacity) {
			total := 0
			for _, w := range g.Widths {
				total += w
			}
			if total > capacity && len(g.Widths) > 1 {
				t.Fatalf("capacity %d, runs %v: a group of %d values holds %d bits", capacity, runs, len(g.Widths), total)
			}
		}
	}
	// Counts beyond what a list could hold: Table 1's 8.8·10⁹ gates.
	if got, want := Count([]Run{{Width: 67, Count: 17_600_000_000}}, 2046), int64(586_666_667); got != want {
		t.Errorf("Count of 1.76e10 values of 67 bits = %d, want %d", got, want)
	}
}

func fixedBackends(tb testing.TB) map[string]tte.Scheme {
	tb.Helper()
	th, err := tte.NewThreshold(paillier.FixedTestKey(3))
	if err != nil {
		tb.Fatal(err)
	}
	dj, err := tte.NewThresholdDJ(paillier.FixedTestKey(3), 2)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]tte.Scheme{"sim": tte.NewSim(512), "threshold-512": th, "threshold-512-dj2": dj}
}

// roundTrip encrypts one value per width, packs them by the plan for the
// key's capacity, opens every group with t+1 partial decryptions and splits.
// full sets every slot to its maximum 2^w − 1 (all ones, so any carry between
// slots shows); otherwise the values come from rng.
func roundTrip(tb testing.TB, te tte.Scheme, widths []int, full bool, rng *rand.Rand) {
	tb.Helper()
	pk, shares, err := te.KeyGen(3, 1)
	if err != nil {
		tb.Fatal(err)
	}
	values := make([]*big.Int, len(widths))
	cts := make([]tte.Ciphertext, len(widths))
	for l, w := range widths {
		bound := new(big.Int).Lsh(big.NewInt(1), uint(w))
		bound.Sub(bound, big.NewInt(1))
		values[l] = new(big.Int).Set(bound)
		if !full && w > 0 {
			values[l].Rand(rng, new(big.Int).Add(bound, big.NewInt(1)))
		}
		if w == 0 {
			// A zero-width slot is the canonical zero ciphertext.
			cts[l], err = te.Eval(pk, nil, nil)
		} else {
			cts[l], err = te.Encrypt(pk, values[l], bound)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	for _, g := range Plan(widths, Capacity(pk.MaxPlaintext())) {
		ct, err := Pack(te, pk, cts[g.Start:g.Start+len(g.Widths)], g.Widths)
		if err != nil {
			tb.Fatalf("group at %d: %v", g.Start, err)
		}
		if len(g.Widths) == 1 && ct != cts[g.Start] {
			tb.Errorf("group at %d: a group of one is not its ciphertext", g.Start)
		}
		var parts []tte.PartialDec
		for _, sh := range shares[:2] {
			part, err := te.PartialDecrypt(pk, sh, ct)
			if err != nil {
				tb.Fatal(err)
			}
			parts = append(parts, part)
		}
		v, err := te.Combine(pk, ct, parts)
		if err != nil {
			tb.Fatal(err)
		}
		got, err := Split(v, g.Widths)
		if err != nil {
			tb.Fatalf("group at %d: %v", g.Start, err)
		}
		for l := range got {
			if got[l].Cmp(values[g.Start+l]) != 0 {
				tb.Errorf("group at %d, slot %d of %d bits: opened %v, packed %v", g.Start, l, g.Widths[l], got[l], values[g.Start+l])
			}
		}
	}
}

func TestSlotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, te := range fixedBackends(t) {
		t.Run(name, func(t *testing.T) {
			// real512_deep's batch (129 + 129 + 194 bits just fit 509), a
			// zero slot in every position, and a value that must go alone.
			for _, widths := range [][]int{
				{129, 129, 194, 129, 129, 194},
				{0, 65, 0, 65, 0},
				{65, 65, 65, 65, 65, 65, 65, 65, 65},
				{509, 1, 508},
				{1},
			} {
				roundTrip(t, te, widths, true, rng)
				roundTrip(t, te, widths, false, rng)
			}
		})
	}
}

// FuzzSlotRoundTrip packs and splits fuzzer-chosen slot vectors with every
// slot at its maximum, on both backends and both plaintext degrees.
func FuzzSlotRoundTrip(f *testing.F) {
	f.Add([]byte{129, 129, 194, 129, 129, 194})
	f.Add([]byte{0, 65, 0, 255, 255, 1})
	f.Add([]byte{61})
	backends := fixedBackends(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 24 {
			raw = raw[:24]
		}
		// Widths up to the smallest capacity (509 bits at s = 1): Encrypt
		// refuses a wider bound, so a wider value never exists.
		widths := make([]int, len(raw))
		for l, b := range raw {
			widths[l] = min(2*int(b), 509)
		}
		for _, te := range backends {
			roundTrip(t, te, widths, true, nil)
		}
	})
}

func TestPackRefusesAnOverBoundCiphertext(t *testing.T) {
	te := tte.NewSim(512)
	pk, _, err := te.KeyGen(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := te.Encrypt(pk, big.NewInt(5), big.NewInt(255))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := te.Encrypt(pk, big.NewInt(5), big.NewInt(256))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pack(te, pk, []tte.Ciphertext{narrow, narrow}, []int{8, 8}); err != nil {
		t.Fatalf("8-bit bounds in 8-bit slots: %v", err)
	}
	for _, cts := range [][]tte.Ciphertext{{narrow, wide}, {wide, narrow}, {wide}} {
		_, err := Pack(te, pk, cts, []int{8, 8}[:len(cts)])
		if !errors.Is(err, ErrSlotOverflow) {
			t.Errorf("a 9-bit bound in an 8-bit slot: err = %v, want ErrSlotOverflow", err)
		}
	}
	if _, err := Split(big.NewInt(1<<16), []int{8, 8}); !errors.Is(err, ErrSlotOverflow) {
		t.Errorf("an integer past the last slot: err = %v, want ErrSlotOverflow", err)
	}
}

// The static widths are worst cases of the bounds TEval tracks: a run's
// ciphertexts never outgrow them (core's property tests run whole protocols
// against that), and they are what the issue sized the benchmark workloads
// by.
func TestListsOfBenchmarkWorkloads(t *testing.T) {
	for _, tc := range []struct {
		name          string
		width, depth  int
		n, t, k       int
		epsDelta      int // every ε/δ
		batch         []int
		perLayerCount int64
	}{
		{"real2048_wide", 2, 1, 8, 2, 2, 65, []int{127, 127, 191}, 3},
		{"real512_deep", 4, 6, 16, 3, 4, 66, []int{129, 129, 194}, 3},
		{"sim_wide_n256", 128, 1, 256, 63, 32, 70, []int{137, 137, 205}, 12},
		{"sim_boardd_n64", 128, 2, 64, 15, 8, 68, []int{133, 133, 199}, 48},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := circuit.WideMul(tc.width, tc.depth)
			if err != nil {
				t.Fatal(err)
			}
			ls := ListsOf(c, tc.n, tc.t, tc.k)
			if want := []Run{{Width: tc.epsDelta, Count: int64(2 * c.NumMul())}}; !reflect.DeepEqual(ls.EpsDelta, want) {
				t.Errorf("ε/δ widths %v, want %v", ls.EpsDelta, want)
			}
			if len(ls.Layers) != tc.depth {
				t.Fatalf("%d layers, want %d", len(ls.Layers), tc.depth)
			}
			for l, runs := range ls.Layers {
				widths := Expand(runs)
				if int64(len(widths)) != tc.perLayerCount {
					t.Fatalf("layer %d: %d shares per member, want %d", l+1, len(widths), tc.perLayerCount)
				}
				for j, w := range widths {
					if w != tc.batch[j%3] {
						t.Errorf("layer %d share %d is %d bits, want %d", l+1, j, w, tc.batch[j%3])
					}
				}
			}
			// A WideMul circuit has only fresh wires, so the shape-only lists
			// are the same ones.
			inputs, outputs := make([]int, 2), make([]int, 2)
			for ci, client := range c.Clients() {
				inputs[ci], outputs[ci] = c.InputCount(client), len(c.OutputGates(client))
			}
			muls := make([]int, tc.depth)
			for l := range muls {
				muls[l] = tc.width
			}
			fresh := FreshLists(tc.n, tc.t, tc.k, inputs, outputs, muls)
			for _, pair := range [][2][]Run{{fresh.EpsDelta, ls.EpsDelta}, {fresh.Inputs[0], ls.Inputs[0]},
				{fresh.Inputs[1], ls.Inputs[1]}, {fresh.Outputs[0], ls.Outputs[0]}, {fresh.Layers[0], ls.Layers[0]}} {
				if !reflect.DeepEqual(Expand(pair[0]), Expand(pair[1])) {
					t.Errorf("shape-only list %v, circuit's %v", pair[0], pair[1])
				}
			}
		})
	}
}

// Linear gates widen a wire by the recurrences TEval applies; a constant wire
// has width 0.
func TestListsOfLinearGates(t *testing.T) {
	b := circuit.NewBuilder()
	x, y := b.Input(0), b.Input(1)
	b.Output(b.Add(x, y), 0)                     // 2·np
	b.Output(b.Sub(x, y), 0)                     // np + (p−1)·np
	b.Output(b.ConstMul(field.New(1000), x), 0)  // 1000·np
	b.Output(b.Const(field.New(7)), 0)           // 0
	b.Output(b.Mul(b.Sub(x, y), b.Add(x, y)), 1) // fresh
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ls := ListsOf(c, 4, 1, 1) // np = 4·(2^61 − 1): 63 bits
	if got, want := Expand(ls.Outputs[0]), []int{64, 124, 73, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("client 0 output widths %v, want %v", got, want)
	}
	if got, want := Expand(ls.Outputs[1]), []int{63}; !reflect.DeepEqual(got, want) {
		t.Errorf("client 1 output widths %v, want %v", got, want)
	}
	// ε = (x − y) + a, δ = (x + y) + b.
	if got, want := Expand(ls.EpsDelta), []int{124, 65}; !reflect.DeepEqual(got, want) {
		t.Errorf("ε/δ widths %v, want %v", got, want)
	}
}
