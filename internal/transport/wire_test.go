package transport

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"yosompc/internal/wire"
)

// TestEntryGoldenWire pins the committed byte-exact frame layout
// (docs/WIRE.md): u8 version | u32 body length | u32 seq | str8 from |
// str8 phase | str8 category | trace context | payload. Changing any of
// these bytes is a wire-format break and must bump wire.Version (v2 added
// the trace-context field, v3 the body length).
func TestEntryGoldenWire(t *testing.T) {
	e := Entry{
		Seq:      7,
		From:     "off1/3",
		Phase:    "offline",
		Category: "beaver",
		Trace:    TraceContext{Proc: "p1", Span: 9, PostUS: 1000, RecvUS: 1500},
		Size:     4,
		Payload:  []byte{0xde, 0xad, 0xbe, 0xef},
	}
	golden := []byte{
		0x03,                   // version
		0x00, 0x00, 0x00, 0x39, // body length
		0x00, 0x00, 0x00, 0x07, // seq
		0x06, 'o', 'f', 'f', '1', '/', '3', // from
		0x07, 'o', 'f', 'f', 'l', 'i', 'n', 'e', // phase
		0x06, 'b', 'e', 'a', 'v', 'e', 'r', // category
		0x02, 'p', '1', // trace: proc
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, // trace: span
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0xe8, // trace: post_us
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0xdc, // trace: recv_us
		0xde, 0xad, 0xbe, 0xef, // payload: the rest of the body
	}
	enc, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, golden) {
		t.Errorf("encoded frame:\n got %x\nwant %x", enc, golden)
	}
	if len(enc) != e.EncodedSize() {
		t.Errorf("EncodedSize = %d, encoded %d bytes", e.EncodedSize(), len(enc))
	}
	var dec Entry
	if err := dec.UnmarshalBinary(golden); err != nil {
		t.Fatal(err)
	}
	if dec.Seq != 7 || dec.From != "off1/3" || dec.Phase != "offline" ||
		dec.Category != "beaver" || dec.Trace != e.Trace ||
		dec.Size != 4 || !bytes.Equal(dec.Payload, e.Payload) {
		t.Errorf("decoded = %+v", dec)
	}
}

func TestEntryStreamRoundTrip(t *testing.T) {
	in := []Entry{
		{Seq: 0, From: "a", Phase: "setup", Category: "crs", Size: 0, Payload: nil},
		{Seq: 1, From: "off1/1", Phase: "offline", Category: "lambda",
			Trace: TraceContext{Proc: "proc-a", Span: 17, PostUS: 12345, RecvUS: 12399},
			Size:  3, Payload: []byte{1, 2, 3}},
		{Seq: 2, From: "on/4", Phase: "online", Category: "mu", Size: 1, Payload: []byte{9}},
	}
	var buf bytes.Buffer
	for _, e := range in {
		if _, err := e.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range in {
		body, err := wire.ReadFrame(&buf, nil)
		var got Entry
		if err == nil {
			err = got.decode(body)
		}
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if got.Seq != want.Seq || got.From != want.From || got.Trace != want.Trace ||
			got.Size != want.Size || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("entry %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := wire.ReadFrame(&buf, nil); err != io.EOF {
		t.Errorf("read past stream end = %v, want io.EOF", err)
	}
}

func TestEntryDecodeRejectsMalformed(t *testing.T) {
	good, _ := Entry{Seq: 1, From: "r", Phase: "online", Category: "mu", Size: 2, Payload: []byte{1, 2}}.MarshalBinary()
	cases := map[string][]byte{
		"empty":         {},
		"wrong version": append([]byte{0x7f}, good[1:]...),
		"truncated":     good[:len(good)-1],
		"trailing":      append(append([]byte{}, good...), 0x00),
	}
	for name, data := range cases {
		var e Entry
		if err := e.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decode succeeded", name)
		} else if name != "truncated" && !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: err = %v, not wire.ErrMalformed", name, err)
		}
	}
	// Mid-frame EOF on a stream is io.ErrUnexpectedEOF, never a silent stop.
	if _, err := wire.ReadFrame(bytes.NewReader(good[:len(good)-1]), nil); err != io.ErrUnexpectedEOF {
		t.Errorf("mid-frame stream EOF = %v, want io.ErrUnexpectedEOF", err)
	}
}

// FuzzWireRoundTrip feeds arbitrary bytes through the Entry decoder, and
// as a stream through wire.ReadFrame and the entry, post and answer
// decoders: none may panic, and every frame a decoder accepts must
// re-encode to the exact same bytes (a canonical encoding, so measured
// sizes are reproducible), an entry to as many as its EncodedSize says.
func FuzzWireRoundTrip(f *testing.F) {
	seed, _ := Entry{Seq: 3, From: "off1/2", Phase: "offline", Category: "reshare",
		Trace: TraceContext{Proc: "p", Span: 1, PostUS: 2, RecvUS: 3},
		Size:  5, Payload: []byte{1, 2, 3, 4, 5}}.MarshalBinary()
	f.Add(seed)
	empty, _ := Entry{From: "", Phase: "", Category: ""}.MarshalBinary()
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte{0x02})
	f.Add([]byte{0x02, 0xff, 0xff, 0xff, 0xff})
	post := Entry{From: "on/1", Phase: "online", Category: "mu", Trace: TraceContext{Proc: "p"}, Payload: []byte{7, 8}}
	stream := append(appendPostHeader(nil, &post), post.Payload...)
	stream = appendAnswer(stream, 9, nil)
	stream = appendAnswer(stream, 0, errors.New("missing poster"))
	f.Add(append(stream, seed...))
	f.Fuzz(func(t *testing.T, data []byte) {
		// checkFrame checks that a decoded entry re-encodes to exactly the
		// frame it came from, through MarshalBinary and through WriteTo, and
		// that EncodedSize counts its bytes.
		checkFrame := func(e Entry, frame []byte) {
			if e.Size != len(e.Payload) {
				t.Fatalf("decoded Size %d != len(Payload) %d", e.Size, len(e.Payload))
			}
			re, err := e.MarshalBinary()
			if err != nil {
				t.Fatalf("re-encoding accepted entry: %v", err)
			}
			if !bytes.Equal(re, frame) {
				t.Fatalf("decode/encode not byte-identical:\n in %x\nout %x", frame, re)
			}
			if len(re) != e.EncodedSize() {
				t.Fatalf("EncodedSize = %d, encoded %d bytes", e.EncodedSize(), len(re))
			}
			// The stream writer sends header and payload separately; the
			// bytes must be MarshalBinary's.
			var streamed bytes.Buffer
			n, err := e.WriteTo(&streamed)
			if err != nil || n != int64(len(re)) || !bytes.Equal(streamed.Bytes(), re) {
				t.Fatalf("WriteTo (n=%d, err=%v) differs from MarshalBinary:\nstream %x\nmarshal %x", n, err, streamed.Bytes(), re)
			}
		}
		var e Entry
		if err := e.UnmarshalBinary(data); err == nil {
			checkFrame(e, data)
		}
		r := bytes.NewReader(data)
		for {
			start := len(data) - r.Len()
			body, err := wire.ReadFrame(r, nil)
			if err != nil {
				return
			}
			frame := data[start : len(data)-r.Len()]
			if err := e.decode(body); err == nil {
				checkFrame(e, frame)
			}
			if len(body) > 0 && body[0] == opPost {
				if e, err := decodePost(body[1:]); err == nil {
					if re := append(appendPostHeader(nil, &e), e.Payload...); !bytes.Equal(re, frame) {
						t.Fatalf("post decode/encode not byte-identical:\n in %x\nout %x", frame, re)
					}
				}
			}
			seq, err := decodeAnswer(body)
			var re []byte
			switch {
			case err == nil:
				re = appendAnswer(nil, seq, nil)
			case errors.Is(err, errRejected):
				re = appendAnswer(nil, 0, errors.New(string(body[1:])))
			default:
				continue
			}
			if !bytes.Equal(re, frame) {
				t.Fatalf("answer decode/encode not byte-identical:\n in %x\nout %x", frame, re)
			}
		}
	})
}

// WriteTo sends the payload slice itself: streaming a 64 KiB posting
// allocates only its header.
func TestEntryWriteToAllocations(t *testing.T) {
	e := Entry{Seq: 7, From: "off1/3", Phase: "offline", Category: "beaver",
		Trace: TraceContext{Proc: "p1", Span: 9, PostUS: 1000, RecvUS: 1500},
		Size:  64 << 10, Payload: make([]byte, 64<<10)}
	write := func() {
		if _, err := e.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, write); allocs > 1 {
		t.Errorf("WriteTo made %.0f allocations, want at most 1 (the header)", allocs)
	}
	if per := allocBytesPerRun(100, write); per >= 1<<10 {
		t.Errorf("WriteTo of a %d-byte payload allocated %d bytes", len(e.Payload), per)
	}
}

// allocBytesPerRun returns the heap bytes f allocates per call, averaged
// over runs calls.
func allocBytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
