package comm

import (
	"sync"
	"testing"
)

// TestMeterSnapshotConcurrent hammers Add and Report from many
// goroutines. Run under -race it proves Report never observes the
// meter mid-update; the final total check proves no Add is lost.
func TestMeterSnapshotConcurrent(t *testing.T) {
	m := &Meter{}
	const (
		writers = 8
		readers = 4
		adds    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			phase := [...]Phase{PhaseSetup, PhaseOffline, PhaseOnline}[w%3]
			for i := 0; i < adds; i++ {
				m.Add(phase, CatMu, 3)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev Report
			for i := 0; i < adds; i++ {
				snap := m.Report()
				// Snapshots of a grow-only meter are monotone; a diff
				// against any earlier snapshot must be non-negative.
				d := snap.Diff(prev)
				if d.Total < 0 || d.Postings < 0 {
					t.Errorf("snapshot went backwards: %+v before %+v", prev, snap)
					return
				}
				for p, v := range d.ByPhase {
					if v < 0 {
						t.Errorf("phase %s delta negative: %d", p, v)
						return
					}
				}
				prev = snap
			}
		}()
	}
	wg.Wait()
	want := int64(writers * adds * 3)
	if got := m.Report().Total; got != want {
		t.Fatalf("final total = %d, want %d", got, want)
	}
	if got := m.Report().Postings; got != int64(writers*adds) {
		t.Fatalf("final postings = %d, want %d", got, writers*adds)
	}
}

func TestReportDiff(t *testing.T) {
	m := &Meter{}
	m.Add(PhaseOffline, CatBeaver, 100)
	m.Add(PhaseOffline, CatProof, 40)
	before := m.Report()

	m.Add(PhaseOffline, CatBeaver, 25)
	m.Add(PhaseOnline, CatMu, 7)
	after := m.Report()

	d := after.Diff(before)
	if d.Total != 32 || d.Postings != 2 {
		t.Fatalf("diff total/postings = %d/%d, want 32/2", d.Total, d.Postings)
	}
	if d.ByPhase[PhaseOffline] != 25 || d.ByPhase[PhaseOnline] != 7 {
		t.Fatalf("diff phases = %+v", d.ByPhase)
	}
	if _, ok := d.ByCat[PhaseOffline][CatProof]; ok {
		t.Fatalf("unchanged category must be omitted from diff: %+v", d.ByCat)
	}
	if d.ByCat[PhaseOffline][CatBeaver] != 25 || d.ByCat[PhaseOnline][CatMu] != 7 {
		t.Fatalf("diff categories = %+v", d.ByCat)
	}

	// Idle interval: diff of a snapshot with itself is empty.
	z := after.Diff(after)
	if z.Total != 0 || z.Postings != 0 || len(z.ByPhase) != 0 || len(z.ByCat) != 0 {
		t.Fatalf("self-diff not empty: %+v", z)
	}
}
