package main

import (
	"testing"

	"yosompc"
)

// checkOutputs accepts the plaintext evaluation's outputs and refuses a
// run whose outputs differ from them in one value, or miss a client's.
func TestCheckOutputs(t *testing.T) {
	circ, inputs, err := buildWorkload("inner-product", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := circ.Eval(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOutputs(circ, inputs, want); err != nil {
		t.Errorf("the evaluation's own outputs: %v", err)
	}
	client := circ.Clients()[0]
	wrong := map[int][]yosompc.Value{}
	for c, vals := range want {
		wrong[c] = append([]yosompc.Value(nil), vals...)
	}
	wrong[client][0] = wrong[client][0].Add(yosompc.NewValue(1))
	if err := checkOutputs(circ, inputs, wrong); err == nil {
		t.Error("an output off by one was accepted")
	}
	delete(wrong, client)
	if err := checkOutputs(circ, inputs, wrong); err == nil {
		t.Error("a client's missing outputs were accepted")
	}
}
