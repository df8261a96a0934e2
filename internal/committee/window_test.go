package committee

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"yosompc/internal/comm"
	"yosompc/internal/pke"
	"yosompc/internal/postlen"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// TestWindowLayout checks the Re-encrypt windows over every admissible
// (n, t, k) up to n = 12, k = 1 included, and the baseline's quorum t + 1:
// a window holds s = n − 2(k−1) distinct members (n for the baseline) and
// at least t + 1, the members window walks are exactly those answers
// admits, every member answers exactly s of a committee's n roles, and a
// posting answering g openings per role seals g·s. Openings addressed to
// one role alone are refused where s < n: they would give the members
// postings of different lengths.
func TestWindowLayout(t *testing.T) {
	for n := 1; n <= 12; n++ {
		for tt := 0; tt < n; tt++ {
			quorums := map[int]int{tt + 1: n} // quorum → the window it gives
			for k := 1; tt+2*(k-1)+1 <= n; k++ {
				quorums[tt+2*(k-1)+1] = n - 2*(k-1)
			}
			for q, want := range quorums {
				s := postlen.Window(n, tt, q)
				if s != want || s < tt+1 {
					t.Fatalf("n=%d t=%d q=%d: window of %d, want %d ≥ t+1", n, tt, q, s, want)
				}
				roles := make([]int, n+1) // roles[m]: how many roles member m answers
				for r := 1; r <= n; r++ {
					first, size := window(n, s, r)
					var walked []int
					for d := range size {
						walked = append(walked, (first-1+d)%n+1)
					}
					var admitted []int
					for m := 1; m <= n; m++ {
						if answers(n, s, r, m) {
							admitted = append(admitted, m)
							roles[m]++
						}
					}
					sorted := slices.Clone(walked)
					slices.Sort(sorted)
					if size != s || walked[0] != r || !slices.Equal(sorted, admitted) {
						t.Fatalf("n=%d t=%d q=%d: role %d's window walks %v, answers admits %v", n, tt, q, r, walked, admitted)
					}
				}
				for m := 1; m <= n; m++ {
					if roles[m] != s {
						t.Fatalf("n=%d t=%d q=%d: member %d answers %d roles, want %d", n, tt, q, m, roles[m], s)
					}
				}
				var open []Opening
				for r := 1; r <= n; r++ {
					open = append(open, Opening{Key: stubKey{}, Role: r}, Opening{Key: stubKey{}, Role: r}, Opening{})
				}
				if got, err := answered(open, n, s); err != nil || got != (postlen.Posting{Partials: n, Sealed: 2 * s}) {
					t.Fatalf("n=%d t=%d q=%d: two openings per role and n Decrypts give %+v, %v; want %d sealed", n, tt, q, got, err, 2*s)
				}
				if _, err := answered([]Opening{{Key: stubKey{}, Role: 1}}, n, s); (err == nil) != (s == n) {
					t.Fatalf("n=%d t=%d q=%d: one opening for role 1 alone: %v", n, tt, q, err)
				}
			}
		}
	}
}

// stubKey stands in for a recipient's key where nothing is sealed.
type stubKey struct{ pke.PublicKey }

// TestWindowedPostingLayout runs a tsk step whose openings mix Decrypts,
// Re-encrypts to a client and two Re-encrypts to every role of the next
// committee, which reads them at quorum t + 2(k−1) + 1 for k = 2, so each
// role's window holds testN − 2 members, and two of the step's members
// fail (one malicious, one crashed). Every column must hold the verified
// members of its window in window order (all verified members for the
// others), and each entry must be the bytes at the offset the member's
// posting has them at by an independent count: the posting key, then, in
// opening order, a clear partial or an envelope for each opening the
// member answers. Each envelope opens under its recipient's key at its
// opening's index, and every Re-encrypt combines to its plaintext; the
// hand-off columns follow the openings in every posting.
func TestWindowedPostingLayout(t *testing.T) {
	f, dealt := newFixtureOn(t, tte.NewSim(512), pke.NewSim(), nil)
	f.Quorum = testT + 2*(2-1) + 1
	s := postlen.Window(testN, testT, f.Quorum)
	if s != testN-2 {
		t.Fatalf("window of %d, want %d", s, testN-2)
	}
	c, next := f.form(t, "c"), f.form(t, "next")
	c.Roles[1].Behavior, c.Roles[5].Behavior = yoso.Malicious, yoso.FailStop
	client, clientSK, err := f.PKE.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	var open []Opening
	add := func(key pke.PublicKey, role int) {
		open = append(open, Opening{Ct: f.encrypt(t, int64(100+len(open))), Key: key, Role: role})
	}
	add(nil, 0)
	for round := range 2 {
		for r := 1; r <= testN; r++ {
			add(next.Role(r).PublicKey(), r)
		}
		if round == 0 {
			add(client, 0)
			add(nil, 0)
		}
	}
	recipient := func(o Opening) pke.SecretKey {
		if o.Role == 0 {
			return clientSK
		}
		return next.Role(o.Role).SecretKey()
	}
	tsk, err := f.DealShares(c, dealt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.TskStep(tsk, c, Spec{Phase: comm.PhaseOnline, Cat: comm.CatPartial, Label: "step"}, open, next)
	if err != nil {
		t.Fatal(err)
	}
	postings := map[int][]byte{}
	for _, e := range f.Board.Entries(0) {
		var m int
		if _, err := fmt.Sscanf(e.From, "c/%d", &m); err == nil && e.Category == comm.CatPartial {
			postings[m] = e.Payload
		}
	}
	z := f.Sizes
	length := func(o Opening) int {
		if o.Key == nil {
			return z.Partial
		}
		return z.PKEOverhead + z.Partial
	}
	// offset is where member m's part answering opening j starts, by count.
	offset := func(m, j int) int {
		off := z.PostingKey
		for _, o := range open[:j] {
			if o.Role == 0 || (m-o.Role+testN)%testN < s {
				off += length(o)
			}
		}
		return off
	}
	verified := []int{1, 3, 4, 5, 7}
	for j, o := range open {
		var want []int // the verified members answering j, in window order
		for d := range testN {
			m := (max(o.Role, 1)-1+d)%testN + 1
			if slices.Contains(verified, m) && (o.Role == 0 || d < s) {
				want = append(want, m)
			}
		}
		col, keys := res.Partials[j], [][]byte(nil)
		if o.Key != nil {
			col, keys = res.Sealed[j].envs, res.Sealed[j].keys
			if res.Sealed[j].part != j || len(keys) != len(col) {
				t.Fatalf("opening %d: column at part %d with %d keys for %d envelopes", j, res.Sealed[j].part, len(keys), len(col))
			}
		}
		if len(col) != len(want) {
			t.Fatalf("opening %d (role %d): %d entries, want members %v", j, o.Role, len(col), want)
		}
		for x, m := range want {
			posting := postings[m]
			off := offset(m, j)
			if !bytes.Equal(col[x], posting[off:off+length(o)]) {
				t.Errorf("opening %d, member %d: the column's entry is not the posting's bytes at %d", j, m, off)
			}
			if o.Key == nil {
				continue
			}
			if !bytes.Equal(keys[x], posting[:z.PostingKey]) {
				t.Errorf("opening %d, member %d: the column's key is not the posting's", j, m)
			}
			if _, err := openEnvelope(f.Runner, recipient(o), keys[x], j, col[x], f.TE.DecodePartial); err != nil {
				t.Errorf("opening %d, member %d: envelope does not open at part %d: %v", j, m, j, err)
			}
		}
		if o.Key != nil {
			v, err := f.CombineSealed(recipient(o), res.Sealed[j], o.Ct)
			if err != nil || v.Int64() != int64(100+j) {
				t.Errorf("opening %d combines to %v, %v; want %d", j, v, err, 100+j)
			}
		}
	}
	for j, col := range tsk.handoff {
		if col.part != len(open)+j || len(col.envs) != len(verified) {
			t.Fatalf("hand-off %d: %d envelopes at part %d", j, len(col.envs), col.part)
		}
		for x, m := range verified {
			off := offset(m, len(open)) + j*(z.PKEOverhead+z.SubShare)
			if !bytes.Equal(col.envs[x], postings[m][off:off+z.PKEOverhead+z.SubShare]) {
				t.Errorf("hand-off %d, member %d: the column's envelope is not the posting's bytes at %d", j, m, off)
			}
		}
	}
}
