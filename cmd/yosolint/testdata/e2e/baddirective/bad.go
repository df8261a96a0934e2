// Package baddirective is the end-to-end fixture for directive
// validation: an unknown directive name, the directives of retired
// analyzers (lockscope's blocking, wirecodec's wireok) and a
// justification-less suppression must each fail the run on their own,
// even though the code violates no analyzer.
package baddirective

//yosolint:frobnicate because reasons
var a = 1

var b = 2 //yosolint:ignore

//yosolint:blocking the mutex serializes the single connection
var c = 3

//yosolint:wireok local snapshot, never posted to the board
var d = 4
