package edatool

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/diag"
	"repro/internal/verilog"
	"repro/internal/vhdl"
)

const cacheTestDUT = `
module top_module(input a, input b, output y);
    assign y = a & b;
endmodule
`

const cacheTestTB = `
module tb;
  reg a, b; wire y;
  top_module dut(.a(a), .b(b), .y(y));
  initial begin
    a = 1; b = 1; #1;
    if (y !== 1'b1) $display("Test Case 1 Failed");
    else $display("All tests passed successfully!");
    $finish;
  end
endmodule
`

func TestDesignKeyOrderNormalized(t *testing.T) {
	a := Source{Name: "a.v", Text: "module a; endmodule"}
	b := Source{Name: "b.v", Text: "module b; endmodule"}
	k1 := designKey(Verilog, "tb", []Source{a, b})
	k2 := designKey(Verilog, "tb", []Source{b, a})
	if k1 != k2 {
		t.Errorf("key depends on source order:\n%s\n%s", k1, k2)
	}
	if k := designKey(Verilog, "other", []Source{a, b}); k == k1 {
		t.Error("key ignores top module")
	}
	if k := designKey(VHDL, "tb", []Source{a, b}); k == k1 {
		t.Error("key ignores language")
	}
	c := Source{Name: "a.v", Text: "module a2; endmodule"}
	if k := designKey(Verilog, "tb", []Source{c, b}); k == k1 {
		t.Error("key ignores content change")
	}
}

// TestDesignCheckoutExclusive pins the checkout discipline: an acquire
// removes the design so a concurrent run can never share it, and a
// release returns it (dropping duplicates rather than stacking them).
func TestDesignCheckoutExclusive(t *testing.T) {
	cache := NewDesignCache()
	srcs := []Source{{Name: "dut.v", Text: cacheTestDUT}, {Name: "tb.v", Text: cacheTestTB}}
	res := SimulateWith(Verilog, "tb", SimOptions{MaxTime: 1000, Cache: cache}, srcs...)
	if !res.Passed {
		t.Fatalf("seed run failed:\n%s", res.Log)
	}
	key := designKey(Verilog, "tb", srcs)
	d1, ok := cache.acquireVerilog(key)
	if !ok || d1 == nil {
		t.Fatal("design not retained after release")
	}
	if d2, ok := cache.acquireVerilog(key); ok || d2 != nil {
		t.Fatal("second acquire returned the checked-out design")
	}
	cache.releaseVerilog(key, d1)
	if _, ok := cache.acquireVerilog(key); !ok {
		t.Fatal("design not available after release")
	}
}

func TestParseCacheCountsAndPointerIdentity(t *testing.T) {
	cache := NewDesignCache()
	src := Source{Name: "dut.v", Text: cacheTestDUT}
	sf1, _ := cache.parseVerilog(src)
	sf2, _ := cache.parseVerilog(src)
	if sf1 != sf2 {
		t.Error("identical source did not return the retained AST pointer")
	}
	// Same content under a different file name parses fresh (positions
	// embed the file name).
	sf3, _ := cache.parseVerilog(Source{Name: "other.v", Text: cacheTestDUT})
	if sf3 == sf1 {
		t.Error("different file name shared an AST")
	}
	st := cache.Stats()
	if st.ParseHits != 1 || st.ParseMisses != 2 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses", st)
	}
}

// TestParseCacheSingleFlight pins that concurrent misses on one key
// parse once: every other caller waits for the in-flight parse, counts
// a hit, and gets the same AST pointer and the diagnostics an uncached
// parse reports. Run it under -race.
func TestParseCacheSingleFlight(t *testing.T) {
	const n = 16
	p := bench.NewSuite().ByID("counter_up_w4")
	if p == nil {
		t.Fatal("problem counter_up_w4 not in suite")
	}
	// A trailing parse error makes the diagnostics non-empty.
	vsrc := Source{Name: "tb.v", Text: p.RefTBVerilog + "\nmodule broken(input a; endmodule\n"}
	hsrc := Source{Name: "tb.vhd", Text: p.RefTBVHDL + "\nentity broken is port (a : in bit endentity;\n"}
	_, vwant := verilog.Parse(vsrc.Name, vsrc.Text)
	_, hwant := vhdl.Parse(hsrc.Name, hsrc.Text)
	if len(vwant) == 0 || len(hwant) == 0 {
		t.Fatalf("want parse diagnostics, got %d Verilog / %d VHDL", len(vwant), len(hwant))
	}

	cache := NewDesignCache()
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		vasts [n]*verilog.SourceFile
		hasts [n]*vhdl.DesignFile
		vdiag [n]diag.List
		hdiag [n]diag.List
	)
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			<-start
			vasts[i], vdiag[i] = cache.parseVerilog(vsrc)
		}(i)
		go func(i int) {
			defer wg.Done()
			<-start
			hasts[i], hdiag[i] = cache.parseVHDL(hsrc)
		}(i)
	}
	close(start)
	wg.Wait()

	if st := cache.Stats(); st.ParseMisses != 2 || st.ParseHits != 2*n-2 {
		t.Errorf("stats = %+v, want exactly 1 miss per language (2) and %d hits", st, 2*n-2)
	}
	for i := 0; i < n; i++ {
		if vasts[i] == nil || vasts[i] != vasts[0] || hasts[i] == nil || hasts[i] != hasts[0] {
			t.Fatalf("caller %d got a different AST pointer", i)
		}
		if !reflect.DeepEqual(vdiag[i], vwant) || !reflect.DeepEqual(hdiag[i], hwant) {
			t.Fatalf("caller %d got diagnostics that differ from an uncached parse", i)
		}
	}
}

func TestCacheStatsSub(t *testing.T) {
	a := CacheStats{DesignHits: 5, DesignMisses: 3, ParseHits: 10, ParseMisses: 2}
	b := CacheStats{DesignHits: 2, DesignMisses: 1, ParseHits: 4, ParseMisses: 1}
	got := a.Sub(b)
	want := CacheStats{DesignHits: 3, DesignMisses: 2, ParseHits: 6, ParseMisses: 1}
	if got != want {
		t.Errorf("Sub = %+v, want %+v", got, want)
	}
}

// TestCompileErrorPathUncached pins that compile failures behave
// identically with and without a cache (and never poison it).
func TestCompileErrorPathUncached(t *testing.T) {
	bad := []Source{{Name: "dut.v", Text: "module broken(input a; endmodule"}}
	cold := SimulateWith(Verilog, "tb", SimOptions{MaxTime: 1000}, bad...)
	cache := NewDesignCache()
	for i := 0; i < 2; i++ {
		warm := SimulateWith(Verilog, "tb", SimOptions{MaxTime: 1000, Cache: cache}, bad...)
		if warm.Log != cold.Log || warm.Failed != cold.Failed {
			t.Errorf("run %d: cached compile-error result differs from cold", i)
		}
	}
}

// Whole-pipeline benchmarks: what one simulation costs the repair loop
// cold, fully warm (identical sources — the reset-and-rerun path), and
// per repair iteration (changed RTL under a frozen testbench). These
// feed BENCH_hdl.json alongside the front-end kernel benchmarks.

func benchProblem(b *testing.B) []Source {
	b.Helper()
	p := bench.NewSuite().ByID("counter_up_w4")
	if p == nil {
		b.Fatal("problem counter_up_w4 not in suite")
	}
	return []Source{
		{Name: "dut.v", Text: p.GoldenVerilog},
		{Name: "tb.v", Text: p.RefTBVerilog},
	}
}

func BenchmarkPipelineSimCold(b *testing.B) {
	srcs := benchProblem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := SimulateWith(Verilog, bench.TBName, SimOptions{MaxTime: 200_000}, srcs...)
		if !res.Passed {
			b.Fatalf("run failed:\n%s", res.Log)
		}
	}
}

func BenchmarkPipelineSimWarm(b *testing.B) {
	srcs := benchProblem(b)
	cache := NewDesignCache()
	opts := SimOptions{MaxTime: 200_000, Cache: cache}
	if res := SimulateWith(Verilog, bench.TBName, opts, srcs...); !res.Passed {
		b.Fatalf("prime run failed:\n%s", res.Log)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := SimulateWith(Verilog, bench.TBName, opts, srcs...)
		if !res.Passed {
			b.Fatalf("run failed:\n%s", res.Log)
		}
	}
}

func BenchmarkPipelineRepairIteration(b *testing.B) {
	srcs := benchProblem(b)
	cache := NewDesignCache()
	opts := SimOptions{MaxTime: 200_000, Cache: cache}
	if res := SimulateWith(Verilog, bench.TBName, opts, srcs...); !res.Passed {
		b.Fatalf("prime run failed:\n%s", res.Log)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter := []Source{
			{Name: srcs[0].Name, Text: fmt.Sprintf("// iteration %d\n", i) + srcs[0].Text},
			srcs[1],
		}
		res := SimulateWith(Verilog, bench.TBName, opts, iter...)
		if !res.Passed {
			b.Fatalf("run failed:\n%s", res.Log)
		}
	}
}
