// Package baddirective is the end-to-end fixture for directive
// validation: an unknown directive name, the directive of a retired
// analyzer (lockscope's blocking) and a justification-less suppression
// must each fail the run on their own, even though the code violates no
// analyzer.
package baddirective

//yosolint:frobnicate because reasons
var a = 1

var b = 2 //yosolint:ignore

//yosolint:blocking the mutex serializes the single connection
var c = 3
