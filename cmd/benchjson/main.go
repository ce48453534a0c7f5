// Command benchjson converts `go test -bench` text output on stdin into
// a stable JSON document, so benchmark baselines can be committed and
// diffed (see BENCH_hdl.json and docs/PERFORMANCE.md):
//
//	go test -run '^$' -bench . -benchmem ./internal/hdl ./internal/vsim | go run ./cmd/benchjson
//
// With -compare it is also the CI regression gate: the parsed run is
// checked against a committed baseline and the command exits nonzero
// when allocs/op regress beyond -max-allocs-regress or B/op beyond
// -max-bytes-regress. Allocation counts and bytes are deterministic
// enough to gate on; wall-clock times on shared runners are not, so
// time deltas are reported but never fail the run:
//
//	go test -run '^$' -bench . -benchtime=20x -benchmem ./internal/... |
//	    go run ./cmd/benchjson -compare BENCH_hdl.json -max-allocs-regress 10% -max-bytes-regress 10%
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result line.
type Bench struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      int64   `json:"b_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Doc is the emitted JSON document. Nproc is the logical CPU count of
// the host that ran benchjson, which is the benchmarking host when
// benchjson reads `go test` through a pipe as documented above.
type Doc struct {
	Goos       string  `json:"goos,omitempty"`
	Goarch     string  `json:"goarch,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	Nproc      int     `json:"nproc,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
}

func main() {
	compare := flag.String("compare", "", "baseline JSON document to gate against (exit 1 on allocs/op or B/op regression)")
	maxAllocs := flag.String("max-allocs-regress", "10%", "allocs/op tolerance over the baseline: a percentage like 10%, or a ratio like 0.1")
	maxBytes := flag.String("max-bytes-regress", "10%", "B/op tolerance over the baseline, in the same form (increases under 1 KiB/op always pass); a baseline without B/op is not gated on bytes")
	summary := flag.String("summary", "", "with -compare: append a markdown time-delta table to this file (advisory; pass \"$GITHUB_STEP_SUMMARY\" in CI — an empty value is silently ignored)")
	flag.Parse()

	doc, err := parseBenchText(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	doc.Nproc = runtime.NumCPU()
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: encode: %v\n", err)
		os.Exit(1)
	}

	if *compare == "" {
		return
	}
	tol, err := parseTolerance(*maxAllocs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: -max-allocs-regress: %v\n", err)
		os.Exit(1)
	}
	bytesTol, err := parseTolerance(*maxBytes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: -max-bytes-regress: %v\n", err)
		os.Exit(1)
	}
	raw, err := os.ReadFile(*compare)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	var base Doc
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parse baseline %s: %v\n", *compare, err)
		os.Exit(1)
	}
	report := compareDocs(&base, doc, tol, bytesTol)
	for _, line := range report.lines {
		fmt.Fprintln(os.Stderr, line)
	}
	if *summary != "" {
		if err := appendSummary(*summary, &base, doc, report); err != nil {
			// The summary is advisory; a broken path must not mask the
			// gate verdict below.
			fmt.Fprintf(os.Stderr, "benchjson: -summary: %v\n", err)
		}
	}
	if len(report.regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) beyond %s allocs/op or %s B/op vs %s\n",
			len(report.regressions), *maxAllocs, *maxBytes, *compare)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: allocs/op within %s and B/op within %s of %s (%d benchmarks compared)\n",
		*maxAllocs, *maxBytes, *compare, report.compared)
}

func parseBenchText(r io.Reader) (*Doc, error) {
	var doc Doc
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				b.Pkg = pkg
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &doc, nil
}

// parseTolerance accepts "10%" or a plain ratio like "0.1".
func parseTolerance(s string) (float64, error) {
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("malformed tolerance %q", s)
	}
	if pct {
		v /= 100
	}
	if v < 0 {
		return 0, fmt.Errorf("negative tolerance %q", s)
	}
	return v, nil
}

// compareReport is the outcome of one baseline comparison.
type compareReport struct {
	lines       []string // human-readable findings, regressions first
	regressions []string // "<benchmark key> <unit>" for each failed gate
	compared    int
}

// minBytesRegress is the smallest B/op increase the bytes gate reports.
// At -benchtime=20x a single runtime allocation of a few KiB inside the
// timed loop (seen as a one-off 262 B/op on benchmarks that allocate
// nothing) would otherwise fail a benchmark with a small baseline.
const minBytesRegress = 1024

// compareDocs gates cur against base: allocs/op may exceed the baseline
// by at most tol, and B/op by at most bytesTol (both relative) or
// minBytesRegress, whichever is larger. A baseline without B/op
// (recorded without -benchmem, or 0 B/op, which the allocs gate already
// pins at zero allocations) is not gated on bytes. Time deltas are
// advisory only — shared CI runners make wall-clock noise far larger
// than any tolerance worth alerting on. Benchmarks missing from either side are reported but do
// not fail the gate (renames and additions are legitimate; the
// committed baseline review catches silent deletions).
func compareDocs(base, cur *Doc, tol, bytesTol float64) compareReport {
	var rep compareReport
	var advisory []string
	baseBy := map[string]Bench{}
	for _, b := range base.Benchmarks {
		baseBy[b.Pkg+"."+b.Name] = b
	}
	seen := map[string]bool{}
	for _, c := range cur.Benchmarks {
		key := c.Pkg + "." + c.Name
		seen[key] = true
		b, ok := baseBy[key]
		if !ok {
			advisory = append(advisory, fmt.Sprintf("  new: %s (%d allocs/op) — not in baseline", key, c.AllocsPerOp))
			continue
		}
		rep.compared++
		limit := float64(b.AllocsPerOp) * (1 + tol)
		if float64(c.AllocsPerOp) > limit {
			rep.regressions = append(rep.regressions, key+" allocs/op")
			rep.lines = append(rep.lines, fmt.Sprintf("REGRESSION: %s allocs/op %d -> %d (limit %.1f)",
				key, b.AllocsPerOp, c.AllocsPerOp, limit))
		}
		if b.BPerOp == 0 {
			if c.BPerOp > 0 {
				advisory = append(advisory, fmt.Sprintf("  bytes not gated: %s — baseline has no B/op, this run %d B/op", key, c.BPerOp))
			}
		} else if limit := max(float64(b.BPerOp)*(1+bytesTol), float64(b.BPerOp+minBytesRegress)); float64(c.BPerOp) > limit {
			rep.regressions = append(rep.regressions, key+" B/op")
			rep.lines = append(rep.lines, fmt.Sprintf("REGRESSION: %s B/op %d -> %d (limit %.1f)",
				key, b.BPerOp, c.BPerOp, limit))
		}
		if b.NsPerOp > 0 {
			delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
			if delta > 25 || delta < -25 {
				advisory = append(advisory, fmt.Sprintf("  time (advisory): %s %.0fns -> %.0fns (%+.0f%%)",
					key, b.NsPerOp, c.NsPerOp, delta))
			}
		}
	}
	missing := make([]string, 0, len(baseBy))
	for key := range baseBy {
		if !seen[key] {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing) // map order is random; the report must not churn
	for _, key := range missing {
		advisory = append(advisory, fmt.Sprintf("  missing: %s — in baseline but not in this run", key))
	}
	rep.lines = append(rep.lines, advisory...)
	return rep
}

// appendSummary appends a markdown table of every compared benchmark —
// time per op with the delta against the baseline, bytes and allocs
// per op —
// to path. It is written for CI job summaries ($GITHUB_STEP_SUMMARY),
// where the advisory time deltas deserve more visibility than a log
// line but must never gate the build.
func appendSummary(path string, base, cur *Doc, rep compareReport) error {
	baseBy := map[string]Bench{}
	for _, b := range base.Benchmarks {
		baseBy[b.Pkg+"."+b.Name] = b
	}
	var sb strings.Builder
	sb.WriteString("### Benchmark comparison (advisory)\n\n")
	if len(rep.regressions) > 0 {
		fmt.Fprintf(&sb, "**%d allocs/op or B/op regression(s)** — the gate fails this run.\n\n", len(rep.regressions))
	}
	sb.WriteString("| benchmark | ns/op (base) | ns/op (this run) | Δ time | B/op | allocs/op |\n")
	sb.WriteString("|---|---:|---:|---:|---:|---:|\n")
	for _, c := range cur.Benchmarks {
		key := c.Pkg + "." + c.Name
		name := shortPkg(c.Pkg) + "." + strings.TrimPrefix(c.Name, "Benchmark")
		b, ok := baseBy[key]
		if !ok {
			fmt.Fprintf(&sb, "| %s | — | %.1f | new | %d | %d |\n", name, c.NsPerOp, c.BPerOp, c.AllocsPerOp)
			continue
		}
		delta := "—"
		if b.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.0f%%", (c.NsPerOp-b.NsPerOp)/b.NsPerOp*100)
		}
		fmt.Fprintf(&sb, "| %s | %.1f | %.1f | %s | %s | %s |\n", name, b.NsPerOp, c.NsPerOp, delta,
			change(b.BPerOp, c.BPerOp), change(b.AllocsPerOp, c.AllocsPerOp))
	}
	sb.WriteString("\nTime deltas are advisory only; the build gates on allocs/op and B/op.\n")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteString(sb.String())
	return err
}

// change renders a per-op count, with the baseline value when it moved.
func change(base, cur int64) string {
	if base == cur {
		return fmt.Sprintf("%d", cur)
	}
	return fmt.Sprintf("%d → %d", base, cur)
}

// shortPkg trims the module prefix from a package path for table rows.
func shortPkg(pkg string) string {
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		return pkg[i+1:]
	}
	return pkg
}

// parseBenchLine parses lines like
//
//	BenchmarkAdd64-8   92440941   28.31 ns/op   16 B/op   1 allocs/op
func parseBenchLine(line string) (Bench, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return Bench{}, false
	}
	name := f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		// Strip the -<GOMAXPROCS> suffix.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err1 := strconv.ParseInt(f[1], 10, 64)
	ns, err2 := strconv.ParseFloat(f[2], 64)
	if err1 != nil || err2 != nil {
		return Bench{}, false
	}
	b := Bench{Name: name, Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "B/op":
			b.BPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		}
	}
	return b, true
}
