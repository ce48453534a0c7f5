package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro/internal/hdl
cpu: Intel(R) Xeon(R)
BenchmarkAdd64-8   	92440941	        28.31 ns/op	       0 B/op	       0 allocs/op
BenchmarkAddWide-8 	22948483	        58.02 ns/op	      64 B/op	       1 allocs/op
pkg: repro/internal/vsim
BenchmarkSimCounter-8	     386	   2940605 ns/op	    9016 B/op	     176 allocs/op
`

func parseSample(t *testing.T, text string) *Doc {
	t.Helper()
	doc, err := parseBenchText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return doc
}

func TestParseBenchText(t *testing.T) {
	doc := parseSample(t, sampleBench)
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	sc := doc.Benchmarks[2]
	if sc.Name != "BenchmarkSimCounter" || sc.Pkg != "repro/internal/vsim" || sc.AllocsPerOp != 176 {
		t.Fatalf("bad parse: %+v", sc)
	}
}

func TestParseTolerance(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		err  bool
	}{
		{"10%", 0.10, false},
		{"0.1", 0.1, false},
		{"0%", 0, false},
		{"-5%", 0, true},
		{"abc", 0, true},
	}
	for _, tc := range cases {
		got, err := parseTolerance(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("parseTolerance(%q) err = %v, want err=%v", tc.in, err, tc.err)
		}
		if err == nil && got != tc.want {
			t.Errorf("parseTolerance(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestCompareDocsGate(t *testing.T) {
	base := parseSample(t, sampleBench)

	// Within tolerance: 176 -> 190 is under 10%.
	ok := parseSample(t, strings.Replace(sampleBench, "176 allocs/op", "190 allocs/op", 1))
	rep := compareDocs(base, ok, 0.10, 0.10)
	if len(rep.regressions) != 0 {
		t.Fatalf("within-tolerance run flagged: %v", rep.lines)
	}
	if rep.compared != 3 {
		t.Fatalf("compared %d benchmarks, want 3", rep.compared)
	}

	// Beyond tolerance: 176 -> 2000 must fail.
	bad := parseSample(t, strings.Replace(sampleBench, "176 allocs/op", "2000 allocs/op", 1))
	rep = compareDocs(base, bad, 0.10, 0.10)
	if len(rep.regressions) != 1 || !strings.Contains(rep.regressions[0], "BenchmarkSimCounter") {
		t.Fatalf("regression not flagged: %+v", rep)
	}

	// A zero-alloc baseline admits no allocations at all.
	leak := parseSample(t, strings.Replace(sampleBench, "28.31 ns/op	       0 B/op	       0 allocs/op",
		"28.31 ns/op	      16 B/op	       1 allocs/op", 1))
	rep = compareDocs(base, leak, 0.10, 0.10)
	if len(rep.regressions) != 1 || !strings.Contains(rep.regressions[0], "BenchmarkAdd64") {
		t.Fatalf("zero-baseline regression not flagged: %+v", rep)
	}

	// Missing and new benchmarks are reported but do not fail the gate.
	subset := parseSample(t, sampleBench[:strings.Index(sampleBench, "pkg: repro/internal/vsim")]+
		"pkg: repro/internal/vsim\nBenchmarkSimNew-8\t10\t100 ns/op\t0 B/op\t0 allocs/op\n")
	rep = compareDocs(base, subset, 0.10, 0.10)
	if len(rep.regressions) != 0 {
		t.Fatalf("membership changes must not fail the gate: %+v", rep)
	}
	joined := strings.Join(rep.lines, "\n")
	if !strings.Contains(joined, "missing: repro/internal/vsim.BenchmarkSimCounter") ||
		!strings.Contains(joined, "new: repro/internal/vsim.BenchmarkSimNew") {
		t.Fatalf("membership changes not reported:\n%s", joined)
	}
}

func TestCompareDocsBytesGate(t *testing.T) {
	base := parseSample(t, sampleBench)

	// Within tolerance: 9016 -> 9900 B/op is under 10%.
	ok := parseSample(t, strings.Replace(sampleBench, "9016 B/op", "9900 B/op", 1))
	if rep := compareDocs(base, ok, 0.10, 0.10); len(rep.regressions) != 0 {
		t.Fatalf("within-tolerance bytes flagged: %v", rep.lines)
	}

	// Beyond tolerance with allocs/op unchanged: only the bytes gate
	// sees it, so a bug that costs bytes but no allocations fails.
	bad := parseSample(t, strings.Replace(sampleBench, "9016 B/op", "90160 B/op", 1))
	rep := compareDocs(base, bad, 0.10, 0.10)
	if len(rep.regressions) != 1 || rep.regressions[0] != "repro/internal/vsim.BenchmarkSimCounter B/op" {
		t.Fatalf("bytes regression not flagged: %+v", rep)
	}
	if !strings.Contains(rep.lines[0], "B/op 9016 -> 90160") {
		t.Fatalf("bytes regression line = %q", rep.lines[0])
	}
	// The allocs gate is independent: a looser allocs tolerance does
	// not excuse bytes.
	if rep := compareDocs(base, bad, 100, 0.10); len(rep.regressions) != 1 {
		t.Fatalf("bytes gate tied to the allocs tolerance: %+v", rep)
	}

	// A one-off runtime allocation amortized over a short run (under
	// minBytesRegress) does not fail a small baseline.
	blip := parseSample(t, strings.Replace(sampleBench, "64 B/op", "326 B/op", 1))
	if rep := compareDocs(base, blip, 0.10, 0.10); len(rep.regressions) != 0 {
		t.Fatalf("sub-KiB B/op increase flagged: %v", rep.lines)
	}
	big := parseSample(t, strings.Replace(sampleBench, "64 B/op", "1100 B/op", 1))
	if rep := compareDocs(base, big, 0.10, 0.10); len(rep.regressions) != 1 {
		t.Fatalf("B/op increase over 1 KiB not flagged: %+v", rep)
	}

	// Missing baseline: a baseline recorded without B/op does not gate
	// bytes, and says so.
	noBytes := parseSample(t, strings.Replace(sampleBench, "9016 B/op", "", 1))
	if noBytes.Benchmarks[2].BPerOp != 0 || noBytes.Benchmarks[2].AllocsPerOp != 176 {
		t.Fatalf("baseline without B/op parsed as %+v", noBytes.Benchmarks[2])
	}
	rep = compareDocs(noBytes, bad, 0.10, 0.10)
	if len(rep.regressions) != 0 {
		t.Fatalf("missing B/op baseline gated: %+v", rep)
	}
	if joined := strings.Join(rep.lines, "\n"); !strings.Contains(joined, "bytes not gated: repro/internal/vsim.BenchmarkSimCounter") {
		t.Fatalf("missing B/op baseline not reported:\n%s", joined)
	}
}
