package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{0, 15}, {0.25, 20}, {0.5, 35}, {0.75, 40}, {1, 50},
		{0.4, 29}, // rank 1.6: 20 + 0.6*(35-20)
		{0.95, 48},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("unsorted median = %v, want 2", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single-sample percentile = %v, want 7", got)
	}
}

func TestCoveredLength(t *testing.T) {
	within := interval{0, 100}
	for _, tc := range []struct {
		name string
		ivs  []interval
		want int64
	}{
		{"none", nil, 0},
		{"disjoint", []interval{{10, 20}, {30, 35}}, 15},
		{"overlapping", []interval{{10, 30}, {20, 40}}, 30},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"touching", []interval{{10, 20}, {20, 30}}, 20},
		{"clipped", []interval{{-10, 10}, {90, 120}}, 20},
		{"outside", []interval{{100, 120}, {-5, 0}}, 0},
		{"unsorted", []interval{{50, 60}, {0, 5}, {55, 70}}, 25},
	} {
		if got := coveredLength(tc.ivs, within); got != tc.want {
			t.Errorf("%s: covered %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestSelfTimes checks self time on a two-level trace: children on
// other goroutines may overlap each other and run past their parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "core.step", Start: 10, End: 50},
		{ID: 3, Parent: 2, Op: 1, Name: "provider.call", Start: 20, End: 30},
		{ID: 4, Parent: 2, Op: 1, Name: "provider.call", Start: 25, End: 35},
		{ID: 5, Parent: 1, Op: 1, Name: "runner.store", Start: 60, End: 120},
		{ID: 6, Parent: 0, Op: 0, Name: "frontend.lex", Start: 0, End: 7},
	}
	want := []int64{100 - 40 - 40, 40 - 15, 10, 10, 60, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", spans[i].ID, spans[i].Name, got[i], want[i])
		}
	}

	lt := aggregate(spans)
	if lt.ops != 1 || lt.opTime != 100 || lt.rootSelf != 20 {
		t.Fatalf("ops %d, op time %v, root self %v; want 1, 100ns, 20ns", lt.ops, lt.opTime, lt.rootSelf)
	}
	if got := lt.coverage(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("coverage %v, want 0.8", got)
	}
	if lt.self["provider.call"] != 20 || lt.count["provider.call"] != 2 {
		t.Errorf("provider.call self %v over %d calls, want 20ns over 2", lt.self["provider.call"], lt.count["provider.call"])
	}
	if lt.total["frontend.lex"] != 7 {
		t.Errorf("op-less span total %v, want 7ns", lt.total["frontend.lex"])
	}
}

func TestRecorderNilAndReserve(t *testing.T) {
	var none *recorder
	if id := none.begin("x", 1, 0); id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	none.end(0)

	r := newRecorder()
	root := r.begin("op", 1, 0)
	child := r.reserve("serve.await", 1, root)
	time.Sleep(time.Millisecond)
	r.start(child)
	r.end(child)
	unfinished := r.reserve("never-started", 1, root)
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot kept %d spans, want the 2 that started and ended", len(spans))
	}
	if spans[1].Start <= spans[0].Start || spans[1].Parent != root || unfinished == 0 {
		t.Errorf("reserved span not started at its own time: %+v", spans)
	}
}
