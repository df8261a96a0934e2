// Package wire exercises the wirecodec analyzer: pair completeness, the
// EncodedSize requirement, fuzz-target coverage, size-model test pins,
// and the //yosolint:wireok escape hatch.
package wire

import "io"

// Good is the reference wire type: the binary-codec pair and an explicit
// size model, fuzzed and pinned in wire_test.go. It has no stream halves
// and needs none — no stream reads it.
type Good struct {
	b byte
}

func (g Good) MarshalBinary() ([]byte, error)     { return []byte{g.b}, nil }
func (g *Good) UnmarshalBinary(data []byte) error { g.b = data[0]; return nil }
func (g Good) EncodedSize() int                   { return 1 }

// Partial has the marshal half only: nothing could decode what it posts.
type Partial struct{} // want `wire type Partial implements MarshalBinary but not UnmarshalBinary`

func (p Partial) MarshalBinary() ([]byte, error) { return nil, nil }

// NoSize has the pair but no size model and no fuzz target.
type NoSize struct{} // want `wire type NoSize has no EncodedSize method` `wire type NoSize has no Fuzz target`

func (s NoSize) MarshalBinary() ([]byte, error)     { return nil, nil }
func (s *NoSize) UnmarshalBinary(data []byte) error { return nil }

// Unfuzzed is complete and pinned but no fuzz target references it.
type Unfuzzed struct{} // want `wire type Unfuzzed has no Fuzz target exercising its codec`

func (u Unfuzzed) MarshalBinary() ([]byte, error)     { return nil, nil }
func (u *Unfuzzed) UnmarshalBinary(data []byte) error { return nil }
func (u Unfuzzed) EncodedSize() int                   { return 0 }

// Unpinned is complete and fuzzed but nothing asserts its size model.
type Unpinned struct{} // want `wire type Unpinned: EncodedSize is not pinned by any test`

func (u Unpinned) MarshalBinary() ([]byte, error)     { return nil, nil }
func (u *Unpinned) UnmarshalBinary(data []byte) error { return nil }
func (u Unpinned) EncodedSize() int                   { return 0 }

// Extern is a stream-framed type (it keeps WriteTo/ReadFrom because a
// stream reads it; the analyzer neither asks for nor objects to them).
// Its fuzz target and size pin live in the external wire_test package
// (wire_ext_test.go): coverage counts across both test variants.
type Extern struct{}

func (e Extern) MarshalBinary() ([]byte, error)       { return nil, nil }
func (e *Extern) UnmarshalBinary(data []byte) error   { return nil }
func (e Extern) WriteTo(w io.Writer) (int64, error)   { return 0, nil }
func (e *Extern) ReadFrom(r io.Reader) (int64, error) { return 0, nil }
func (e Extern) EncodedSize() int                     { return 0 }

// Justified opts out with the mandatory justification: a local snapshot
// type that reuses the marshal name but never crosses the board.
type Justified struct{} //yosolint:wireok local debug snapshot, never posted to the board

func (j Justified) MarshalBinary() ([]byte, error) { return nil, nil }
