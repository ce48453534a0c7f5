package main

import (
	"strings"
	"testing"

	"repro/internal/edatool"
)

// TestReferenceModelMatchesSimulator runs a tiny generated chain
// through the simulator in both HDLs: the testbench must report zero
// signature mismatches against the Go reference model. A corrupted
// expectation must be caught, so the check cannot pass vacuously.
func TestReferenceModelMatchesSimulator(t *testing.T) {
	for _, lang := range []edatool.Language{edatool.Verilog, edatool.VHDL} {
		c := newChain(7, 6, 2*checkEvery)
		d, tb := c.sources(lang)
		res := edatool.New(edatool.Options{}).Simulate(lang, "tb", 0, d, tb)
		if !chainPassed(res.Log) {
			t.Fatalf("%s: generated chain failed its reference checks:\n%s", lang, res.Log)
		}

		c.ops[len(c.ops)-1].k++ // the model and the RTL now disagree
		if c.ops[len(c.ops)-1].kind == 2 {
			c.ops[len(c.ops)-1].kind = 0
		}
		d, _ = c.sources(lang)
		res = edatool.New(edatool.Options{}).Simulate(lang, "tb", 0, d, tb)
		if chainPassed(res.Log) || !strings.Contains(res.Log, failMessage) {
			t.Fatalf("%s: a design differing from the reference model passed:\n%s", lang, res.Log)
		}
	}
}
