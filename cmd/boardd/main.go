// Command boardd runs the networked bulletin-board service and its
// observer client:
//
//	boardd -listen :7946                 # serve a board
//	boardd -listen :7946 -debug :6060   # … with live metrics + pprof
//	boardd -watch localhost:7946        # tail a board's postings live
//
// Protocol runs mirror into a board with `yosompc -mirror <addr>`; remote
// observers audit who posted how many bytes in which phase — the public
// record the YOSO broadcast channel carries. With -debug, the server also
// exposes an HTTP observability surface (/metrics, /progress, /debug/vars,
// /debug/pprof/...) for live profiling and board-derived protocol progress
// (straggler and fail-stop tracking); see docs/OBSERVABILITY.md. Use
// `yosowatch` for the live terminal rendering of the same progress.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"yosompc/internal/monitor"
	"yosompc/internal/telemetry"
	"yosompc/internal/transport"
)

func main() {
	var (
		listen = flag.String("listen", "", "serve a board on this address (e.g. :7946)")
		debug  = flag.String("debug", "", "with -listen: also serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :6060)")
		watch  = flag.String("watch", "", "tail a board at this address")
		since  = flag.Int("since", 0, "with -watch: start from this sequence number")
	)
	flag.Parse()

	switch {
	case *listen != "":
		serve(*listen, *debug)
	case *watch != "":
		tail(*watch, *since)
	default:
		fmt.Fprintln(os.Stderr, "boardd: pass -listen ADDR or -watch ADDR")
		os.Exit(2)
	}
}

func serve(addr, debugAddr string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "boardd: %v\n", err)
		os.Exit(1)
	}
	var reg *telemetry.Registry
	if debugAddr != "" {
		reg = telemetry.NewRegistry()
	}
	s := transport.Serve(ln)
	s.Instrument(reg)
	var debugSrv *telemetry.HTTPServer
	if debugAddr != "" {
		// The monitor derives protocol progress (committee completion,
		// stragglers, fail-stop margins) from the posts this server
		// accepts, and /progress serves its snapshot.
		mon := monitor.New()
		mon.Instrument(reg)
		mon.AttachBoard(s.Board)
		h := telemetry.HandlerWithProgress(reg, nil, func() any { return mon.Snapshot() })
		debugSrv, err = telemetry.ListenAndServe(debugAddr, h)
		if err != nil {
			fmt.Fprintf(os.Stderr, "boardd: debug listener: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("boardd: metrics, progress and pprof on http://%s\n", debugSrv.Addr())
	}
	fmt.Printf("boardd: serving bulletin board on %s\n", s.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("boardd: shutting down; %d postings (%s)\n", s.Len(),
		func() string { r := s.Report(); return fmt.Sprintf("%d bytes", r.Total) }())
	if debugSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := debugSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "boardd: debug shutdown: %v\n", err)
		}
		cancel()
	}
	_ = s.Close()
}

func tail(addr string, since int) {
	// The banner goes out before the reader can print an entry. Each line
	// is printed from the borrowed entry, whose payload is never copied.
	fmt.Printf("boardd: tailing %s from seq %d\n", addr, since)
	ended := make(chan struct{})
	stop, err := transport.TailFuncEnd(addr, since, func(e *transport.Entry) {
		fmt.Printf("#%-6d %-9s %-22s %8d B  %s\n",
			e.Seq, e.Phase, e.Category, e.Size, e.From)
	}, func() { close(ended) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "boardd: %v\n", err)
		os.Exit(1)
	}
	<-ended
	// The stream ended: surface why. stop() reports the terminal decode
	// error — nil only when the server closed the stream cleanly at a
	// frame boundary.
	if err := stop(); err != nil {
		fmt.Fprintf(os.Stderr, "boardd: tail disconnected: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("boardd: stream closed by server")
}
