// Package comm measures and reports communication: every byte posted to
// the broadcast channel is attributed to a protocol phase and a message
// category. Communication complexity is the paper's metric, so the meter
// is the instrument every experiment reads.
package comm

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Phase names a protocol phase.
type Phase string

// The protocol's phases.
const (
	PhaseSetup   Phase = "setup"
	PhaseOffline Phase = "offline"
	PhaseOnline  Phase = "online"
	// PhaseSystem carries board metadata that is not protocol traffic —
	// expected-speaker manifests and other observability records. It is
	// deliberately outside the three protocol phases so the cost-model
	// comparisons (which pin setup/offline/online bytes exactly) never see
	// monitoring overhead.
	PhaseSystem Phase = "system"
)

// Category names a message category within a phase.
type Category string

// Message categories used by the protocols.
const (
	// CatBeaver carries the product step's masks and c-parts (core's OffB,
	// the baseline's bOff2), and the baseline's Beaver a-parts.
	CatBeaver Category = "beaver-triples"
	// CatLambda carries the packed protocol's one random step: the wire
	// λ's and the packing helpers.
	CatLambda    Category = "wire-randomness"
	CatPartial   Category = "partial-decryptions"
	CatReshare   Category = "key-resharing"
	CatReencrypt Category = "re-encryptions"
	CatKFF       Category = "keys-for-future"
	CatProof     Category = "proofs"
	CatMu        Category = "mu-openings"
	CatInput     Category = "client-inputs"
	CatOutput    Category = "client-outputs"
	CatRoleKeys  Category = "role-keys"
	CatCRS       Category = "crs"
	// CatManifest is the expected-speaker manifest a committee former posts
	// under PhaseSystem before the committee speaks: the public record the
	// monitor derives progress and fail-stop margins from.
	CatManifest Category = "progress-manifests"
)

// Meter accumulates byte counts. The zero value is ready to use and safe
// for concurrent use.
type Meter struct {
	mu       sync.Mutex
	total    int64
	postings int64
	byPhase  map[Phase]int64
	byCat    map[Phase]map[Category]int64
}

// Add records size bytes in the given phase and category.
func (m *Meter) Add(phase Phase, cat Category, size int) {
	if size < 0 {
		panic(fmt.Sprintf("comm: negative size %d", size))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.byPhase == nil {
		m.byPhase = map[Phase]int64{}
		m.byCat = map[Phase]map[Category]int64{}
	}
	m.total += int64(size)
	m.postings++
	m.byPhase[phase] += int64(size)
	if m.byCat[phase] == nil {
		m.byCat[phase] = map[Category]int64{}
	}
	m.byCat[phase][cat] += int64(size)
}

// Report returns an immutable snapshot of the meter's current counts.
// Pairing two reports around a region of work and diffing them yields the
// bytes attributable to that region even while other goroutines keep
// calling Add.
func (m *Meter) Report() Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := Report{
		Total:    m.total,
		Postings: m.postings,
		ByPhase:  map[Phase]int64{},
		ByCat:    map[Phase]map[Category]int64{},
	}
	for p, v := range m.byPhase {
		r.ByPhase[p] = v
	}
	for p, cats := range m.byCat {
		r.ByCat[p] = map[Category]int64{}
		for c, v := range cats {
			r.ByCat[p][c] = v
		}
	}
	return r
}

// Report is a snapshot of a Meter.
type Report struct {
	// Total is the number of bytes posted across all phases.
	Total int64
	// Postings is the number of individual posts.
	Postings int64
	// ByPhase breaks Total down by phase.
	ByPhase map[Phase]int64
	// ByCat breaks each phase down by category.
	ByCat map[Phase]map[Category]int64
}

// Phase returns the byte count of one phase.
func (r Report) Phase(p Phase) int64 { return r.ByPhase[p] }

// Diff returns the difference r − prev: the traffic recorded between the
// moment prev was snapshotted and the moment r was. Phases and categories
// whose delta is zero are omitted, so an idle interval diffs to the zero
// Report. prev must be an earlier snapshot of the same meter; counts only
// grow, so every delta is non-negative.
func (r Report) Diff(prev Report) Report {
	d := Report{
		Total:    r.Total - prev.Total,
		Postings: r.Postings - prev.Postings,
		ByPhase:  map[Phase]int64{},
		ByCat:    map[Phase]map[Category]int64{},
	}
	for p, v := range r.ByPhase {
		if dv := v - prev.ByPhase[p]; dv != 0 {
			d.ByPhase[p] = dv
		}
	}
	for p, cats := range r.ByCat {
		for c, v := range cats {
			var prevV int64
			if prev.ByCat[p] != nil {
				prevV = prev.ByCat[p][c]
			}
			if dv := v - prevV; dv != 0 {
				if d.ByCat[p] == nil {
					d.ByCat[p] = map[Category]int64{}
				}
				d.ByCat[p][c] = dv
			}
		}
	}
	return d
}

// PerGate returns phase bytes divided by the gate count.
func (r Report) PerGate(p Phase, gates int) float64 {
	if gates == 0 {
		return 0
	}
	return float64(r.ByPhase[p]) / float64(gates)
}

// String renders a human-readable table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total: %s in %d postings\n", HumanBytes(r.Total), r.Postings)
	phases := make([]string, 0, len(r.ByPhase))
	for p := range r.ByPhase {
		phases = append(phases, string(p))
	}
	sort.Strings(phases)
	for _, ps := range phases {
		p := Phase(ps)
		fmt.Fprintf(&b, "  %-8s %s\n", p, HumanBytes(r.ByPhase[p]))
		cats := make([]string, 0, len(r.ByCat[p]))
		for c := range r.ByCat[p] {
			cats = append(cats, string(c))
		}
		sort.Strings(cats)
		for _, cs := range cats {
			fmt.Fprintf(&b, "    %-22s %s\n", cs, HumanBytes(r.ByCat[p][Category(cs)]))
		}
	}
	return b.String()
}

// MarshalJSON renders the report as a stable JSON document for tooling.
func (r Report) MarshalJSON() ([]byte, error) {
	type phaseDoc struct {
		Total      int64            `json:"total"`
		Categories map[string]int64 `json:"categories"`
	}
	doc := struct {
		Total    int64               `json:"total"`
		Postings int64               `json:"postings"`
		Phases   map[string]phaseDoc `json:"phases"`
	}{
		Total:    r.Total,
		Postings: r.Postings,
		Phases:   map[string]phaseDoc{},
	}
	for p, v := range r.ByPhase {
		pd := phaseDoc{Total: v, Categories: map[string]int64{}}
		for c, cv := range r.ByCat[p] {
			pd.Categories[string(c)] = cv
		}
		doc.Phases[string(p)] = pd
	}
	return json.Marshal(doc)
}

// HumanBytes renders a byte count with a binary unit suffix.
func HumanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
