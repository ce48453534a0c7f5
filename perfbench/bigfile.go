package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/diag"
	"repro/internal/edatool"
	"repro/internal/sim"
	"repro/internal/verilog"
	"repro/internal/vhdl"
	"repro/internal/vhdlsim"
	"repro/internal/vsim"
)

var bigfileWorkload = workload{
	name:      "bigfile",
	why:       "cold compile, elaborate and simulate of a ~100 KB seeded Verilog/VHDL design: frontend, elab and sim do the work, where the quadratic lexer shows",
	setupReps: 9,
	setup:     setupBigfile,
}

const (
	// bigfileBytes is the design-plus-testbench size of one op's input.
	bigfileBytes = 100_000
	// bigfileCycles gives the simulator real work: every stage of the
	// chain is active on every cycle.
	bigfileCycles = 4096
	// lexScaleReps repeats the quarter-size lexer timing.
	lexScaleReps = 3
)

type bigSource struct {
	lang       edatool.Language
	design, tb edatool.Source
	bytes      int
}

type bigfileInst struct {
	seed    int64
	sources []bigSource // one per language, used on alternating ops
}

func setupBigfile(seed int64) (instance, error) {
	b := &bigfileInst{seed: seed}
	for _, lang := range languages {
		b.sources = append(b.sources, genBigSource(seed, lang, bigfileBytes))
	}
	return b, nil
}

func genBigSource(seed int64, lang edatool.Language, bytes int) bigSource {
	d, tb := chainForSize(seed, lang, bytes, bigfileCycles).sources(lang)
	return bigSource{lang: lang, design: d, tb: tb, bytes: len(d.Text) + len(tb.Text)}
}

func (b *bigfileInst) close() {}

// chainPassed reports whether a chain testbench printed the pass
// marker with zero signature mismatches.
func chainPassed(log string) bool {
	return strings.Contains(log, passMarker) && strings.Contains(log, "mismatches: 0") &&
		!strings.Contains(log, failMessage)
}

func (b *bigfileInst) run(seconds float64, traced bool) (*outcome, error) {
	out := &outcome{}
	alloc0 := readAlloc()
	for i := 0; i%2 == 1 || another(i/2, out.raw, seconds); i++ {
		src := b.sources[i%len(b.sources)]
		settle()
		w := startWindow()
		res := edatool.New(edatool.Options{}).Simulate(src.lang, "tb", 0, src.design, src.tb)
		wall, f := w.measure()
		lat := scale(wall, f)
		out.raw += wall
		out.elapsed += lat
		out.attempted++
		out.latencies = append(out.latencies, ms(lat))
		if !res.Passed || !chainPassed(res.Log) {
			out.fail("%s chain (seed %d) did not pass: %.300s", src.lang, b.seed, res.Log)
		}
	}
	out.allocB = readAlloc() - alloc0
	if !traced {
		return out, nil
	}

	// One traced op per language gives the layer breakdown.
	rec := newRecorder()
	t := &bigTrace{rec: rec, lexMs: map[edatool.Language][]float64{}}
	w := startWindow()
	for i, src := range b.sources {
		settle()
		err := t.op(int32(i+1), src)
		out.attempted++
		if err != nil {
			out.fail("traced %s op: %v", src.lang, err)
		}
	}
	_, f := w.measure()
	lt := aggregate(rec.snapshot())
	m := t.metrics(lt)
	// Lexer scaling compares the op's sources with the same design
	// generated at a quarter of the size: about 16 means quadratic, 4
	// linear. (Stepping up to 4x instead would lex 400 KB, minutes of
	// work while the lexer is quadratic.)
	var scaling []float64
	for _, src := range b.sources {
		quarter := genBigSource(b.seed, src.lang, bigfileBytes/4)
		var qt []float64
		for r := 0; r < lexScaleReps; r++ {
			qt = append(qt, ms(lexTime(quarter)))
		}
		full := median(t.lexMs[src.lang])
		scaling = append(scaling, full/median(qt))
		note("%s lex: %d bytes %.1f ms, %d bytes %.1f ms", src.lang, src.bytes, full, quarter.bytes, median(qt))
	}
	m["frontend.lex_scaling_4x"] = (scaling[0] + scaling[1]) / 2
	m["trace.overhead_pct"] = 100 * (f*median(lt.opMs)/median(out.latencies) - 1)
	out.layer = m
	out.spans = rec
	return out, nil
}

func lexTime(src bigSource) time.Duration {
	t0 := time.Now()
	if src.lang == edatool.Verilog {
		verilog.Tokens(src.design.Text)
		verilog.Tokens(src.tb.Text)
	} else {
		vhdl.Tokens(src.design.Text)
		vhdl.Tokens(src.tb.Text)
	}
	return time.Since(t0)
}

// bigTrace runs bigfile ops through the front-end, elaboration and
// simulation calls Toolchain.Simulate makes, with a span around each.
type bigTrace struct {
	rec     *recorder
	lexMs   map[edatool.Language][]float64
	bytes   int
	frontB  uint64 // bytes allocated in parse and check
	elabB   uint64
	events  uint64
	backend sim.BackendStats
}

// op lexes the sources outside the op (the parser lexes again inside
// it), then compiles, elaborates and simulates them.
func (t *bigTrace) op(op int32, src bigSource) error {
	lx := t.rec.begin("frontend.lex", 0, 0)
	lex := lexTime(src)
	t.rec.end(lx)
	t.lexMs[src.lang] = append(t.lexMs[src.lang], ms(lex))
	t.bytes += src.bytes

	root := t.rec.begin("op", op, 0)
	call := func(name string, f func()) {
		sp := t.rec.begin(name, op, root)
		f()
		t.rec.end(sp)
	}
	a0 := readAlloc()
	var log string
	var failed bool
	if src.lang == edatool.Verilog {
		modules := map[string]*verilog.Module{}
		var diags diag.List
		for _, s := range []edatool.Source{src.design, src.tb} {
			var sf *verilog.SourceFile
			var pd diag.List
			call("frontend.parse", func() { sf, pd = verilog.Parse(s.Name, s.Text) })
			diags = append(diags, pd...)
			if !pd.HasErrors() {
				call("frontend.check", func() {
					cd := verilog.Check(s.Name, sf, modules)
					cd.AttachSnippets(s.Text)
					diags = append(diags, cd...)
				})
			}
			for _, m := range sf.Modules {
				modules[m.Name] = m
			}
		}
		a1 := readAlloc()
		t.frontB += a1 - a0
		if diags.HasErrors() {
			t.rec.end(root)
			return fmt.Errorf("compile errors: %v", diags)
		}
		var d *vsim.Design
		var err error
		call("elab", func() { d, err = vsim.ElaborateWith(nil, modules, "tb") })
		t.elabB += readAlloc() - a1
		if err != nil {
			t.rec.end(root)
			return err
		}
		var res *vsim.Result
		call("sim", func() { res = vsim.SimulateDesign(d, vsim.Options{File: src.tb.Name}) })
		log, failed = res.Log, res.TimedOut || res.Fault != ""
		t.events += res.Events
		t.backend.Add(res.Backend)
	} else {
		extern := map[string]*vhdl.Entity{}
		var units []*vhdl.DesignFile
		var diags diag.List
		for _, s := range []edatool.Source{src.design, src.tb} {
			var df *vhdl.DesignFile
			var pd diag.List
			call("frontend.parse", func() { df, pd = vhdl.Parse(s.Name, s.Text) })
			diags = append(diags, pd...)
			if !pd.HasErrors() {
				call("frontend.check", func() {
					cd := vhdl.Check(s.Name, df, extern)
					cd.AttachSnippets(s.Text)
					diags = append(diags, cd...)
				})
			}
			for _, e := range df.Entities {
				extern[e.Name] = e
			}
			units = append(units, df)
		}
		a1 := readAlloc()
		t.frontB += a1 - a0
		if diags.HasErrors() {
			t.rec.end(root)
			return fmt.Errorf("compile errors: %v", diags)
		}
		var d *vhdlsim.Design
		var err error
		call("elab", func() { d, err = vhdlsim.ElaborateWith(nil, units, "tb") })
		t.elabB += readAlloc() - a1
		if err != nil {
			t.rec.end(root)
			return err
		}
		var res *vhdlsim.Result
		call("sim", func() { res = vhdlsim.SimulateDesign(d, vhdlsim.Options{File: src.tb.Name}) })
		log = res.Log
		failed = res.TimedOut || res.Fault != "" || res.Failed || res.AssertErrors > 0
		t.events += res.Events
		t.backend.Add(res.Backend)
	}
	t.rec.end(root)
	if failed || !chainPassed(log) {
		return fmt.Errorf("chain did not pass: %.300s", log)
	}
	return nil
}

func (t *bigTrace) metrics(lt layerTimes) map[string]float64 {
	ops := lt.ops
	m := map[string]float64{}
	m["frontend.lex_ms"] = lt.totalMsPerOp("frontend.lex")
	m["frontend.parse_ms"] = lt.selfMsPerOp("frontend.parse")
	m["frontend.check_ms"] = lt.selfMsPerOp("frontend.check")
	if front := m["frontend.parse_ms"] + m["frontend.check_ms"]; front > 0 {
		m["frontend.mb_per_s"] = perOp(float64(t.bytes)/1e6, ops) / (front / 1000)
	}
	m["frontend.alloc_mb"] = perOp(float64(t.frontB)/1e6, ops)
	m["elab_ms"] = lt.selfMsPerOp("elab")
	m["elab.alloc_mb"] = perOp(float64(t.elabB)/1e6, ops)
	m["sim_ms"] = lt.selfMsPerOp("sim")
	m["sim.events"] = perOp(float64(t.events), ops)
	if t.events > 0 {
		m["sim.ns_per_event"] = float64(lt.self["sim"]) / float64(t.events)
	}
	m["sim.compiled_procs"] = perOp(float64(t.backend.CompiledProcs), ops)
	m["sim.interpreted_procs"] = perOp(float64(t.backend.InterpretedProcs), ops)
	m["sim.fallbacks"] = perOp(float64(t.backend.Fallbacks), ops)
	m["trace.coverage_pct"] = 100 * lt.coverage()
	return m
}
