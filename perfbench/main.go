// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three workloads from a seed for a fixed time, checks every
// output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// untraced. With --trace 1 the run measures the workload untraced and
// then again with an in-memory span recorder around every call the
// benchmark makes into a layer, and the result carries the per-layer
// metrics derived from those spans. Spans are written to
// .bench_build/spans/ when the run ends. The benchmark times only its
// own calls into the layers' public functions; nothing inside the
// program is instrumented.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	setup     func(seed int64) (instance, error)
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// run measures for the given time; with traced it runs the
	// untraced measurement and then the traced one.
	run(seconds float64, traced bool) (*outcome, error)
	// close releases what set-up created.
	close()
}

// outcome is what one measurement yields.
type outcome struct {
	latencies []float64     // per-op latency, ms, steal-corrected
	elapsed   time.Duration // measured time, steal-corrected
	raw       time.Duration // measured wall time
	attempted int
	failed    int
	allocB    uint64 // bytes allocated during the measurement
	problems  []string
	layer     map[string]float64 // per-layer metrics (traced runs)
	spans     *recorder
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = []workload{sweepWorkload, bigfileWorkload, serviceWorkload}

func main() {
	name := flag.String("workload", "", "workload: sweep | bigfile | service")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time per run, seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sweep|bigfile|service --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := runWorkload(wl, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
}

// repoFile is a file the benchmark reads from the checkout it runs in.
func repoFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%s not found: run from the repository root", path)
	}
	return data, err
}

func runWorkload(wl *workload, seed int64, seconds float64, traced bool) error {
	prov := provenance(wl, seed)
	var setups []float64
	var inst instance
	for i := 0; i < wl.setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		w := startWindow()
		var err error
		if inst, err = wl.setup(seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, w.stop().Seconds())
	}
	defer inst.close()

	out, err := inst.run(seconds, traced)
	if err != nil {
		return err
	}
	if out.attempted == 0 {
		return errors.New("no op completed")
	}
	ops := len(out.latencies)
	metrics := map[string]float64{}
	if traced {
		metrics = out.layer
		metrics["op_p50_ms"] = percentile(out.latencies, 0.50)
		metrics["error_rate"] = float64(out.failed) / float64(out.attempted)
		if out.spans != nil {
			path := fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", wl.name, seed)
			if err := out.spans.write(path); err != nil {
				return fmt.Errorf("writing spans: %w", err)
			}
			fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
		}
	} else {
		metrics["setup_s"] = median(setups)
		metrics["ops_per_s"] = float64(ops) / out.elapsed.Seconds()
		metrics["op_p95_ms"] = percentile(out.latencies, 0.95)
		metrics["alloc_mb_per_op"] = float64(out.allocB) / 1e6 / float64(max(ops, 1))
		metrics["peak_rss_mb"] = peakRSSMB()
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "check failed: %s\n", p)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	report(os.Stderr, wl, defs, metrics, out)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, map[string]value{}}
	for _, d := range defs {
		res.Metrics[d.name] = value{metrics[d.name], d.unit}
	}
	stamp, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(stamp))
	fmt.Println(string(line))
	return nil
}

// report prints every metric by name and unit, with the end-to-end
// metric and workload a per-layer metric should move.
func report(w *os.File, wl *workload, defs []metricDef, metrics map[string]float64, out *outcome) {
	fmt.Fprintf(w, "workload %s: %d ops attempted, %d failed (error_rate %.4f ratio), %d latency samples\n",
		wl.name, out.attempted, out.failed, float64(out.failed)/float64(out.attempted), len(out.latencies))
	if out.raw > 0 {
		fmt.Fprintf(w, "host steal: measured %.2f s of wall time, %.2f s after removing CPU time the hypervisor took (raw ops_per_s %.4f)\n",
			out.raw.Seconds(), out.elapsed.Seconds(), float64(len(out.latencies))/out.raw.Seconds())
	}
	fmt.Fprintf(w, "median op latency %.4f ms (unbounded; reported as op_p50_ms by the traced run)\n", percentile(out.latencies, 0.5))
	if len(out.latencies) < 200 {
		fmt.Fprintf(w, "note: fewer than 200 latency samples, so op_p95_ms has under 10 samples beyond it\n")
	}
	for _, d := range defs {
		v, ok := metrics[d.name]
		shown := fmt.Sprintf("%.4f", v)
		if !ok {
			shown = "n/a" // not measured on this workload; the result line reports 0
		}
		fmt.Fprintf(w, "  %-34s %14s %-8s %s\n", d.name, shown, d.unit, d.moves)
	}
}

func note(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// another reports whether to measure another whole unit of a workload
// (a sweep pass, a bigfile language pair, a service epoch) after done
// units took elapsed wall time: only while at least half of one more
// fits in the measurement time, so runs last about that long on
// average.
func another(done int, elapsed time.Duration, seconds float64) bool {
	if done == 0 {
		return true
	}
	per := elapsed.Seconds() / float64(done)
	return elapsed.Seconds()+per/2 < seconds
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}

func readAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
