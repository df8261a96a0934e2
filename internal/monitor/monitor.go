// Package monitor derives protocol progress from the public bulletin
// board alone. YOSO's role-speaks-once discipline makes this exact rather
// than heuristic: every committee announces its expected speakers in a
// manifest (transport.Manifest, posted under comm.PhaseSystem before the
// committee speaks), every member posts as "committee/index" exactly once,
// and committees speak in sequential steps — so completion fractions,
// missing-speaker sets, straggler wait times, and the §5.4 fail-stop
// margin (missing speakers vs the n−quorum the reconstruction tolerates)
// are all readable off the board, with no in-process hooks.
//
// A Monitor ingests transport entries from any source: a transport.Board
// in the same process — a run's own or the one a boardd serves —
// (AttachBoard), a remote boardd stream (RunTail), or a one-shot dump
// (transport.Fetch + Ingest). All timing is board time — the receive
// stamps entries carry — so a monitor tailing a remote board needs no
// clock of its own.
package monitor

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"yosompc/internal/comm"
	"yosompc/internal/telemetry"
	"yosompc/internal/transport"
)

// Monitor is the board-derived protocol-progress engine. It is safe for
// concurrent use; a nil *Monitor ignores all calls, so wiring one in is
// zero-cost when monitoring is off.
type Monitor struct {
	mu         sync.Mutex
	committees map[string]*committee // keyed proc + "\x00" + name
	order      []*committee          // registration order
	current    map[string]*committee // per-proc committee currently speaking
	infra      map[string]*infraState
	infraOrder []*infraState
	lastUS     int64 // board-clock time of the latest entry seen
	entries    int64
	manifests  int64
	bytes      int64
	unexpected int64 // speaker-shaped posts with no registered committee

	// Telemetry instruments; nil (no-op) until Instrument is called.
	entriesC    *telemetry.Counter // monitor.entries
	manifestsC  *telemetry.Counter // monitor.manifests
	bytesC      *telemetry.Counter // monitor.bytes
	committeesG *telemetry.Gauge   // monitor.committees
	settledG    *telemetry.Gauge   // monitor.committees_settled
	expectedG   *telemetry.Gauge   // monitor.speakers_expected
	postedG     *telemetry.Gauge   // monitor.speakers_posted
	stragglersG *telemetry.Gauge   // monitor.stragglers
	marginG     *telemetry.Gauge   // monitor.failstop_margin_min
}

// committee is the state machine node for one (proc, committee) pair.
type committee struct {
	proc    string
	name    string
	phase   string
	n       int
	quorum  int
	posted  map[int]*speaker
	firstUS int64 // board time of the committee's first speech
	lastUS  int64 // board time of its latest speech
	bytes   int64
	posts   int64
	settled bool // a later committee of the same proc began speaking
}

// speaker records one member's observed posts (a role may post payload
// plus proof in its single speech slot — one speech, possibly several
// board entries).
type speaker struct {
	firstUS int64
	bytes   int64
	posts   int64
}

// infraState aggregates non-committee posters (setup, setup-dealer,
// role-assignment, client/N) by proc and name class.
type infraState struct {
	proc  string
	class string
	posts int64
	bytes int64
}

// New returns an empty monitor.
func New() *Monitor {
	return &Monitor{
		committees: map[string]*committee{},
		current:    map[string]*committee{},
		infra:      map[string]*infraState{},
	}
}

// Instrument registers the monitor's metrics on reg:
//
//	monitor.entries             counter  entries ingested
//	monitor.manifests           counter  committee manifests seen
//	monitor.bytes               counter  payload bytes ingested
//	monitor.committees          gauge    committees registered
//	monitor.committees_settled  gauge    committees confirmed finished
//	monitor.speakers_expected   gauge    Σ manifest n
//	monitor.speakers_posted     gauge    Σ distinct posted speakers
//	monitor.stragglers          gauge    missing speakers of active committees
//	monitor.failstop_margin_min gauge    min (tolerated − missing) over active committees
//
// A nil registry (or nil monitor) is a no-op.
func (m *Monitor) Instrument(reg *telemetry.Registry) {
	if m == nil || reg == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entriesC = reg.Counter("monitor.entries")
	m.manifestsC = reg.Counter("monitor.manifests")
	m.bytesC = reg.Counter("monitor.bytes")
	m.committeesG = reg.Gauge("monitor.committees")
	m.settledG = reg.Gauge("monitor.committees_settled")
	m.expectedG = reg.Gauge("monitor.speakers_expected")
	m.postedG = reg.Gauge("monitor.speakers_posted")
	m.stragglersG = reg.Gauge("monitor.stragglers")
	m.marginG = reg.Gauge("monitor.failstop_margin_min")
}

// key returns the committee map key: committees are disambiguated by the
// posting process so two runs mirroring into one boardd never merge.
func key(proc, name string) string { return proc + "\x00" + name }

// speakerOf splits a committee-member role name "committee/idx". The
// committee part may itself contain slashes; the index is the last
// segment.
func speakerOf(from string) (string, int, bool) {
	i := strings.LastIndexByte(from, '/')
	if i <= 0 || i == len(from)-1 {
		return "", 0, false
	}
	idx, err := strconv.Atoi(from[i+1:])
	if err != nil || idx <= 0 {
		return "", 0, false
	}
	return from[:i], idx, true
}

// Ingest feeds one board entry through the state machine. Entries must
// arrive in sequence order, as AttachBoard and RunTail deliver them;
// feeding the same board twice double-counts. Ingest never keeps
// e.Payload — it decodes manifests from it and keeps only the decoded
// fields — so a caller may pass an entry whose payload it reuses once
// Ingest returns, as RunTail does.
func (m *Monitor) Ingest(e transport.Entry) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries++
	m.bytes += int64(e.Size)
	m.entriesC.Inc()
	m.bytesC.Add(int64(e.Size))
	when := e.Trace.RecvUS
	if when > m.lastUS {
		m.lastUS = when
	}
	proc := e.Trace.Proc

	if e.Category == comm.CatManifest {
		var man transport.Manifest
		if err := man.UnmarshalBinary(e.Payload); err == nil {
			k := key(proc, man.Committee)
			if _, dup := m.committees[k]; !dup {
				c := &committee{
					proc:   proc,
					name:   man.Committee,
					phase:  man.Phase,
					n:      man.N,
					quorum: man.Quorum,
					posted: map[int]*speaker{},
				}
				m.committees[k] = c
				m.order = append(m.order, c)
			}
			m.manifests++
			m.manifestsC.Inc()
		}
		m.export()
		return
	}

	if name, idx, ok := speakerOf(e.From); ok {
		if c := m.committees[key(proc, name)]; c != nil && idx >= 1 && idx <= c.n {
			sp := c.posted[idx]
			if sp == nil {
				sp = &speaker{firstUS: when}
				c.posted[idx] = sp
			}
			sp.posts++
			sp.bytes += int64(e.Size)
			c.posts++
			c.bytes += int64(e.Size)
			if c.firstUS == 0 || when < c.firstUS {
				c.firstUS = when
			}
			if when > c.lastUS {
				c.lastUS = when
			}
			// Committee steps run sequentially: once a different committee
			// of the same process starts speaking, the previous one has
			// had its turn — its missing members are confirmed fail-stops,
			// not stragglers.
			if prev := m.current[proc]; prev != nil && prev != c {
				prev.settled = true
			}
			m.current[proc] = c
			m.export()
			return
		}
		if c := m.committees[key(proc, name)]; c == nil && !isInfraFrom(e.From) {
			m.unexpected++
		}
	}

	// Non-committee poster: setup, dealer, role assignment, clients.
	class := e.From
	if i := strings.IndexByte(class, '/'); i > 0 {
		class = class[:i]
	}
	ik := key(proc, class)
	st := m.infra[ik]
	if st == nil {
		st = &infraState{proc: proc, class: class}
		m.infra[ik] = st
		m.infraOrder = append(m.infraOrder, st)
	}
	st.posts++
	st.bytes += int64(e.Size)
	m.export()
}

// isInfraFrom reports whether a slash-bearing From is a known
// infrastructure poster rather than an unregistered committee member.
func isInfraFrom(from string) bool {
	return strings.HasPrefix(from, "client/")
}

// export updates the registered gauges; callers hold m.mu.
func (m *Monitor) export() {
	if m.committeesG == nil {
		return
	}
	var settled, expected, posted, stragglers int64
	minMargin := int64(1<<63 - 1)
	for _, c := range m.order {
		expected += int64(c.n)
		posted += int64(len(c.posted))
		if c.settled {
			settled++
		}
		if c.settled || len(c.posted) > 0 {
			missing := int64(c.n - len(c.posted))
			stragglers += missing
			if margin := int64(c.n-c.quorum) - missing; margin < minMargin {
				minMargin = margin
			}
		}
	}
	m.committeesG.Set(int64(len(m.order)))
	m.settledG.Set(settled)
	m.expectedG.Set(expected)
	m.postedG.Set(posted)
	m.stragglersG.Set(stragglers)
	if minMargin != 1<<63-1 {
		m.marginG.Set(minMargin)
	}
}

// AttachBoard subscribes the monitor to a board in this process — a run's
// own or the one a transport.Server serves: every entry is ingested
// synchronously as it is appended, in Seq order.
func (m *Monitor) AttachBoard(b *transport.Board) {
	if m == nil || b == nil {
		return
	}
	b.Observe(m.Ingest)
}

// RunTail streams a remote board into the monitor from sequence `since`:
// one transport.TailFunc reader calls Ingest with each entry it borrows.
// The returned stop function ends the stream, waits for the entry being
// ingested, and reports how the stream terminated (nil after a clean
// close or voluntary stop).
func (m *Monitor) RunTail(addr string, since int) (func() error, error) {
	return transport.TailFunc(addr, since, func(e *transport.Entry) { m.Ingest(*e) })
}

// sortedInfra returns the infra groups in deterministic order.
func (m *Monitor) sortedInfra() []*infraState {
	out := make([]*infraState, len(m.infraOrder))
	copy(out, m.infraOrder)
	sort.Slice(out, func(i, j int) bool {
		if out[i].proc != out[j].proc {
			return out[i].proc < out[j].proc
		}
		return out[i].class < out[j].class
	})
	return out
}
