// Deployment: the offline/online split in production shape. Preprocessing
// runs "overnight" (no inputs needed), every bulletin-board posting is
// live-mirrored to a boardd auditing service, and when inputs arrive only
// the O(1)-per-gate online phase runs. A remote observer tails the board
// concurrently — deriving live protocol progress (committee completion,
// fail-stop margins) from the mirrored postings alone, exactly what
// `yosowatch -board <addr>` renders — and prints the audit trail's phase
// totals.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"yosompc"
	"yosompc/internal/comm"
	"yosompc/internal/monitor"
	"yosompc/internal/transport"
)

func main() {
	// An auditing board service (normally `boardd -listen :7946`).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	board := transport.Serve(ln)
	defer board.Close()

	// A remote observer tails the board as the run proceeds: a progress
	// monitor reconstructs the protocol's state from the entries, and the
	// same stream feeds the byte audit. Neither keeps a payload, so the
	// tail lends each entry from its one reused buffer.
	mon := monitor.New()
	perPhase := map[comm.Phase]int64{} // written by the tail's reader until stopTail returns
	stopTail, err := transport.TailFunc(board.Addr(), 0, func(e *transport.Entry) {
		mon.Ingest(*e)
		perPhase[e.Phase] += int64(e.Size)
	})
	if err != nil {
		log.Fatal(err)
	}
	defer stopTail()

	// Overnight: preprocess a trading-settlement computation (inner
	// product of positions and prices) without knowing the values.
	circ, err := yosompc.InnerProduct(8)
	if err != nil {
		log.Fatal(err)
	}
	cfg := yosompc.Config{
		N: 12, T: 2, K: 3,
		Backend:    yosompc.Sim,
		MirrorAddr: board.Addr(),
	}
	// Note: mirroring for split-phase runs uses the facade Run here for
	// brevity; Prepare/Execute carry the same board.
	res, err := yosompc.Run(cfg, circ, map[int][]yosompc.Value{
		0: yosompc.Values(100, 250, 75, 310, 42, 18, 99, 5), // positions
		1: yosompc.Values(3, 7, 2, 1, 12, 9, 4, 30),         // prices
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("settlement value: %v\n", res.Outputs[0][0])
	fmt.Printf("rounds: %d, postings mirrored: %d\n\n", res.Rounds, board.Len())

	// Local and remote accounting agree byte-for-byte once the observer has
	// read everything boardd holds.
	for deadline := time.Now().Add(10 * time.Second); mon.Snapshot().Entries < int64(board.Len()); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			log.Fatalf("the observer read %d of %d postings", mon.Snapshot().Entries, board.Len())
		}
	}
	if err := stopTail(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("auditor's view (via boardd):")
	for _, phase := range []comm.Phase{comm.PhaseSetup, comm.PhaseOffline, comm.PhaseOnline} {
		fmt.Printf("  %-8s %10d B (local: %d B)\n",
			phase, perPhase[phase], res.Report.ByPhase[phase])
	}

	// The remote monitor derived the run's progress purely from mirrored
	// board contents: every committee's manifest arrived before its
	// members spoke, so the observer knows the run is complete.
	snap := mon.Snapshot()
	if !snap.Complete {
		log.Fatalf("remote monitor should see a complete run: %+v", snap)
	}
	fmt.Printf("\nremote monitor: %d/%d expected speakers posted", snap.Posted, snap.Expected)
	if snap.MarginMin != nil {
		fmt.Printf(", min fail-stop margin %d", *snap.MarginMin)
	}
	fmt.Println()
	for _, p := range snap.Phases {
		fmt.Printf("  %-8s %3d/%-3d speakers (complete: %v)\n", p.Phase, p.Posted, p.Expected, p.Complete)
	}
}
