package main

import (
	"fmt"
	"net"
	"runtime"
	"syscall"
	"time"

	"yosompc/internal/comm"
	"yosompc/internal/core"
	"yosompc/internal/field"
	"yosompc/internal/monitor"
	"yosompc/internal/telemetry"
	"yosompc/internal/transport"
)

// iteration is what one protocol run produced: the two timed regions,
// the communication report, and what was observed around them. failure
// is empty for a run that finished with the right outputs.
type iteration struct {
	prepare, online time.Duration
	onlineBytes     int64
	offlineBytes    int64 // setup + offline
	boardPosts      int
	failure         string

	// Resource use between the start of Prepare and the end of Execute,
	// read outside the timed regions.
	allocBytes, mallocs, gcPauseNS uint64
	cpu                            time.Duration

	// The boardd side of a mirrored iteration.
	serverPosts    int
	monitorEntries int64
	mirrorErrors   int64

	// Telemetry of a traced iteration.
	spans   []telemetry.SpanRecord
	metrics telemetry.Snapshot
}

func (it iteration) run() time.Duration { return it.prepare + it.online }

// iterate runs the protocol once. The collections before each timed
// region keep one region's garbage from being collected on the next
// one's clock; without them online times inherit Prepare's heap and
// wander by a quarter.
func (b *bench) iterate(traced bool) iteration {
	var it iteration
	params := b.params()
	if traced {
		params.Trace, params.Metrics = telemetry.NewTracer(), telemetry.NewRegistry()
	}
	var bd *boardd
	if b.w.Boardd {
		var err error
		if bd, err = startBoardd(params.Metrics); err != nil {
			it.failure = err.Error()
			return it
		}
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpuBefore := cpuTime()

	start := time.Now()
	res, err := func() (*core.Result, error) {
		p, err := core.New(params, b.circ, nil)
		if err != nil {
			return nil, err
		}
		if bd != nil {
			if err := bd.mirror(p.Board()); err != nil {
				return nil, err
			}
		}
		prepared, err := p.Prepare()
		bd.catchUp()
		it.prepare = time.Since(start)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		online := time.Now()
		res, err := prepared.Execute(b.inputs)
		bd.catchUp()
		it.online = time.Since(online)
		it.boardPosts = p.Board().Len()
		return res, err
	}()

	it.cpu = cpuTime() - cpuBefore
	runtime.ReadMemStats(&after)
	it.allocBytes = after.TotalAlloc - before.TotalAlloc
	it.mallocs = after.Mallocs - before.Mallocs
	it.gcPauseNS = after.PauseTotalNs - before.PauseTotalNs

	if bd != nil {
		settleErr := bd.settle(&it)
		if err == nil {
			err = settleErr
		}
	}
	if traced {
		it.spans, it.metrics = params.Trace.Spans(), params.Metrics.Snapshot()
	}
	switch {
	case err != nil:
		it.failure = err.Error()
	case len(res.Excluded) != 0:
		it.failure = fmt.Sprintf("honest run excluded %d roles, first %s", len(res.Excluded), res.Excluded[0])
	case !sameOutputs(res.Outputs, b.want):
		it.failure = "outputs differ from circuit.Eval"
	case bd != nil && it.mirrorErrors != 0:
		it.failure = fmt.Sprintf("%d mirrored posts failed", it.mirrorErrors)
	case bd != nil && (it.serverPosts != it.boardPosts || it.monitorEntries != int64(it.serverPosts)):
		it.failure = fmt.Sprintf("board has %d postings, boardd %d, tailing monitor %d",
			it.boardPosts, it.serverPosts, it.monitorEntries)
	}
	if err == nil {
		it.onlineBytes = res.Report.Phase(comm.PhaseOnline)
		it.offlineBytes = res.Report.Phase(comm.PhaseSetup) + res.Report.Phase(comm.PhaseOffline)
	}
	return it
}

func sameOutputs(got, want map[int][]field.Element) bool {
	if len(got) != len(want) {
		return false
	}
	for client, w := range want {
		if !field.EqualVec(got[client], w) {
			return false
		}
	}
	return true
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// boardd is one iteration's loopback board service: a server, the mirror
// connection that writes every posting to it, and a monitor tailing it
// over a second connection. A server keeps every entry it was sent, so a
// fresh one per iteration is what keeps memory from growing with the
// iteration count — and one board per protocol run is the deployment.
type boardd struct {
	server   *transport.Server
	mon      *monitor.Monitor
	stopTail func() error
	mir      *transport.Mirror
}

func startBoardd(reg *telemetry.Registry) (*boardd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("boardd listener: %w", err)
	}
	bd := &boardd{server: transport.Serve(ln), mon: monitor.New()}
	bd.server.Instrument(reg)
	if bd.stopTail, err = bd.mon.RunTail(bd.server.Addr(), 0); err != nil {
		bd.server.Close()
		return nil, err
	}
	return bd, nil
}

func (bd *boardd) mirror(board *transport.Board) error {
	var err error
	bd.mir, err = transport.AttachMirror(board, bd.server.Addr())
	return err
}

// catchUp waits until the tailing monitor has seen every entry the server
// holds, or ten seconds. The tail is asynchronous; a phase of a mirrored
// run ends when its watcher has the whole of it, which also keeps the
// tail's work inside the timed region it belongs to, however far the
// tailer happened to lag. A nil boardd has nothing to wait for.
func (bd *boardd) catchUp() {
	if bd == nil {
		return
	}
	want := int64(bd.server.Len())
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		if bd.mon.Snapshot().Entries >= want {
			return
		}
	}
}

// settle records the counts of both ends of the service and shuts it
// down.
func (bd *boardd) settle(it *iteration) error {
	bd.catchUp()
	it.serverPosts, it.monitorEntries = bd.server.Len(), bd.mon.Snapshot().Entries
	var err error
	if bd.mir != nil {
		it.mirrorErrors = bd.mir.Errors()
		err = bd.mir.Close()
	}
	if tailErr := bd.stopTail(); err == nil {
		err = tailErr
	}
	if closeErr := bd.server.Close(); err == nil {
		err = closeErr
	}
	return err
}
