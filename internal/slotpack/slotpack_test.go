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
	"yosompc/internal/sharing"
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
	return map[string]tte.Scheme{"sim": tte.NewSim(512), "threshold-512": th}
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
// slot at its maximum, on both backends.
func FuzzSlotRoundTrip(f *testing.F) {
	f.Add([]byte{129, 129, 194, 129, 129, 194})
	f.Add([]byte{0, 65, 0, 255, 255, 1})
	f.Add([]byte{61})
	backends := fixedBackends(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 24 {
			raw = raw[:24]
		}
		// Widths up to the 512-bit key's capacity (509 bits): Encrypt
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

// TEval's bound is one computation for both backends, and byte counts and
// slot widths rest on it: Sim and the 512-bit Threshold key give the same
// Bound(), the plain math/big Σ cᵢ·boundᵢ, along the protocol's three kinds
// of sum — an extraction row (coefficients i^j over n field-sized
// contributions), a packing row (k + t Lagrange coefficients l_j(i) over the
// extracted values) and a Pack of the packed shares (coefficients 1 and
// 2^w).
func TestBackendsAgreeOnBounds(t *testing.T) {
	const n, th, k = 16, 3, 4
	dom, err := sharing.GetDomain(k, th+k-1, n)
	if err != nil {
		t.Fatal(err)
	}
	field1 := new(big.Int).SetUint64(field.Modulus - 1)
	bounds := map[string][]*big.Int{}
	for name, te := range fixedBackends(t) {
		pk, _, err := te.KeyGen(n, th)
		if err != nil {
			t.Fatal(err)
		}
		eval := func(cts []tte.Ciphertext, coeffs []*big.Int) tte.Ciphertext {
			t.Helper()
			want := new(big.Int)
			for i, ct := range cts {
				want.Add(want, new(big.Int).Mul(coeffs[i], ct.Bound()))
			}
			out, err := te.Eval(pk, cts, coeffs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if out.Bound().Cmp(want) != 0 {
				t.Fatalf("%s: TEval bound %v, math/big %v", name, out.Bound(), want)
			}
			bounds[name] = append(bounds[name], out.Bound())
			return out
		}
		contribs := make([]tte.Ciphertext, n)
		for i := range contribs {
			if contribs[i], err = te.Encrypt(pk, big.NewInt(int64(i)), field1); err != nil {
				t.Fatal(err)
			}
		}
		// Rows 0 and 3 of the Vandermonde matrix, one value per point.
		points := make([]tte.Ciphertext, k+th)
		for j := range points {
			row := make([]*big.Int, n)
			for i := range row {
				row[i] = new(big.Int).Exp(big.NewInt(int64(i+1)), big.NewInt(int64(3*(j%2))), nil)
			}
			points[j] = eval(contribs, row)
		}
		shares := make([]tte.Ciphertext, 3)
		widths := make([]int, len(shares))
		for i := range shares {
			row := make([]*big.Int, k+th)
			for j, e := range dom.ShareRow(i + 1)[:k+th] {
				row[j] = new(big.Int).SetUint64(e.Uint64())
			}
			shares[i] = eval(points, row)
			widths[i] = shares[i].Bound().BitLen()
		}
		packed, err := Pack(te, pk, shares, widths)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := new(big.Int)
		for l := len(shares) - 1; l >= 0; l-- {
			want.Lsh(want, uint(widths[l])).Add(want, shares[l].Bound())
		}
		if packed.Bound().Cmp(want) != 0 {
			t.Fatalf("%s: packed bound %v, math/big %v", name, packed.Bound(), want)
		}
		bounds[name] = append(bounds[name], packed.Bound())
	}
	sim, thr := bounds["sim"], bounds["threshold-512"]
	if len(sim) != len(thr) {
		t.Fatalf("%d Sim bounds, %d Threshold bounds", len(sim), len(thr))
	}
	for i := range sim {
		if sim[i].Cmp(thr[i]) != 0 {
			t.Errorf("sum %d: Sim bound %v, Threshold bound %v", i, sim[i], thr[i])
		}
	}
}

// The chooser on the four benchmark shapes: each one's m′ and the static
// widths at it, which are worst cases of the bounds TEval tracks (core's
// property tests run whole protocols against that). m′ never exceeds
// 2k − 1, the fewest honest posters within a committee's fail-stop margin,
// and never raises the group count of a list a client or a layer member
// opens, as the output λ's are opened online and the input λ's and shares
// too without KFFs. The wire-randomness blocks are each client's inputs, then
// per batch its k gates and 3t helpers. A layer member's shares fit one group
// on every layer but sim_boardd_n64's, so only that shape's layers need KFFs.
func TestListsOfBenchmarkWorkloads(t *testing.T) {
	for _, tc := range []struct {
		name          string
		width, depth  int
		n, t, k       int
		capacity      int
		extract       int
		eps           int // every ε
		batch         []int
		perLayerCount int64
		kffs          bool
	}{
		{"real2048_wide", 2, 1, 8, 2, 2, 2045, 3, 70, []int{132, 132, 200}, 3, false},
		{"real512_deep", 4, 6, 16, 3, 4, 509, 5, 80, []int{143, 143, 221}, 3, false},
		{"sim_wide_n256", 128, 1, 256, 63, 32, 2046, 2, 78, []int{144, 144, 219}, 12, false},
		{"sim_boardd_n64", 128, 2, 64, 15, 8, 2046, 3, 79, []int{143, 143, 219}, 48, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := circuit.WideMul(tc.width, tc.depth)
			if err != nil {
				t.Fatal(err)
			}
			ls := ListsOf(c, tc.n, tc.t, tc.k, tc.capacity)
			if ls.Extract != tc.extract {
				t.Errorf("m′ = %d, want %d", ls.Extract, tc.extract)
			}
			if ls.Extract > 2*tc.k-1 {
				t.Errorf("m′ = %d exceeds 2k − 1 = %d", ls.Extract, 2*tc.k-1)
			}
			unextracted := listsOf(c, tc.k, extractionBounds(tc.n, tc.t)())
			for name, pair := range map[string][2][][]Run{"inputs": {ls.Inputs, unextracted.Inputs},
				"outputs": {ls.Outputs, unextracted.Outputs}, "layers": {ls.Layers, unextracted.Layers}} {
				for i := range pair[0] {
					if got, was := Count(pair[0][i], tc.capacity), Count(pair[1][i], tc.capacity); got != was {
						t.Errorf("%s %d take %d groups at m′ = %d, %d without extraction", name, i, got, ls.Extract, was)
					}
				}
			}
			blocks := []int{c.InputCount(0), c.InputCount(1)}
			for range c.MulBatches(tc.k) {
				blocks = append(blocks, tc.k+3*tc.t)
			}
			if !reflect.DeepEqual(ls.Random, blocks) {
				t.Errorf("wire-randomness blocks %v, want %v", ls.Random, blocks)
			}
			if want := []Run{{Width: tc.eps, Count: int64(c.NumMul())}}; !reflect.DeepEqual(ls.Eps, want) {
				t.Errorf("ε widths %v, want %v", ls.Eps, want)
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
				if got := ls.NeedsKFF(l, tc.capacity); got != tc.kffs {
					t.Errorf("layer %d needs KFFs: %v, want %v (%d groups)", l+1, got, tc.kffs, Count(runs, tc.capacity))
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
			fresh := FreshLists(tc.n, tc.t, tc.k, tc.capacity, inputs, outputs, muls)
			if fresh.Extract != ls.Extract || !reflect.DeepEqual(fresh.Random, ls.Random) {
				t.Errorf("shape-only m′ = %d and blocks %v, the circuit's %d and %v", fresh.Extract, fresh.Random, ls.Extract, ls.Random)
			}
			for _, pair := range [][2][]Run{{fresh.Eps, ls.Eps}, {fresh.Inputs[0], ls.Inputs[0]},
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
	ls := ListsOf(c, 4, 1, 1, 510) // k = 1 extracts nothing: np = 4·(2^61 − 1), 63 bits
	if got, want := Expand(ls.Outputs[0]), []int{64, 124, 73, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("client 0 output widths %v, want %v", got, want)
	}
	if got, want := Expand(ls.Outputs[1]), []int{63}; !reflect.DeepEqual(got, want) {
		t.Errorf("client 1 output widths %v, want %v", got, want)
	}
	// ε = (x − y) + e.
	if got, want := Expand(ls.Eps), []int{124}; !reflect.DeepEqual(got, want) {
		t.Errorf("ε widths %v, want %v", got, want)
	}
}

// TestWidestSlotIndependentOfDepth pins why one 512-bit Paillier key runs
// circuits of any multiplicative depth: ListsOf restarts every
// multiplication output at the fresh bound, so bounds grow only through
// linear gates, and the widest slot of WideMul(4, d) — real512_deep's
// shape — is the same for d = 1…8, at the m′ chooseExtraction picks for it, and
// fits the key's capacity.
func TestWidestSlotIndependentOfDepth(t *testing.T) {
	const n, tt, k = 16, 3, 4
	te, err := tte.NewThreshold(paillier.FixedTestKey(3))
	if err != nil {
		t.Fatal(err)
	}
	pk, _, err := te.KeyGen(n, tt)
	if err != nil {
		t.Fatal(err)
	}
	capacity := Capacity(pk.MaxPlaintext())
	var first int
	for d := 1; d <= 8; d++ {
		c, err := circuit.WideMul(4, d)
		if err != nil {
			t.Fatal(err)
		}
		w := widest(ListsOf(c, n, tt, k, capacity))
		if d == 1 {
			first = w
		} else if w != first {
			t.Errorf("depth %d: widest slot %d bits, depth 1's is %d", d, w, first)
		}
		if w > capacity {
			t.Errorf("depth %d: widest slot %d bits exceeds the 512-bit key's capacity %d", d, w, capacity)
		}
	}
}

// Every block starts at a position of its own, so no position holds values
// of two readers: blocks of 2, 5, 0 and 3 values at m = 3 start at
// positions 0, 1, 3 and 3 and take 4 in all; at m = 1 each value is one.
func TestLayout(t *testing.T) {
	for _, tc := range []struct {
		m         int
		at        []int
		positions int
	}{{3, []int{0, 1, 3, 3}, 4}, {1, []int{0, 2, 7, 7}, 10}} {
		at, positions := Layout([]int{2, 5, 0, 3}, tc.m)
		if !reflect.DeepEqual(at, tc.at) || positions != tc.positions {
			t.Errorf("m = %d: blocks at %v in %d positions, want %v in %d", tc.m, at, positions, tc.at, tc.positions)
		}
	}
}
