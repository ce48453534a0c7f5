package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share op; a
// span with parent 0 is an op's root (or, with op 0, a measurement
// outside any op, such as the bigfile lexer timing).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths call it unconditionally.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// reserve allocates a span id before the span starts, so spans on
// other goroutines can name it as their parent in advance.
func (r *recorder) reserve(name string, op, parent int32) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: -1})
	r.mu.Unlock()
	return id
}

// start stamps the start of a reserved span.
func (r *recorder) start(id int32) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].Start = now
	r.mu.Unlock()
}

// begin reserves and starts a span.
func (r *recorder) begin(name string, op, parent int32) int32 {
	id := r.reserve(name, op, parent)
	r.start(id)
	return id
}

// end stamps the end of a span.
func (r *recorder) end(id int32) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot returns the spans that both started and ended.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.Start >= 0 && s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCtx carries the enclosing span through calls that take a
// context, so the provider wrapper can parent its spans.
type spanCtx struct {
	rec    *recorder
	op, id int32
}

type spanKey struct{}

func withSpan(ctx context.Context, sc spanCtx) context.Context {
	return context.WithValue(ctx, spanKey{}, sc)
}

func spanFrom(ctx context.Context) (spanCtx, bool) {
	sc, ok := ctx.Value(spanKey{}).(spanCtx)
	return sc, ok && sc.rec != nil
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// coveredLength returns the length of the union of ivs, each clipped
// to within.
func coveredLength(ivs []interval, within interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		lo, hi := max(iv.lo, within.lo), min(iv.hi, within.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	cur := interval{-1, -1}
	for _, iv := range clipped {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		cur.hi = max(cur.hi, iv.hi)
	}
	return total + cur.hi - cur.lo
}

// selfTimes returns each span's duration minus the part of it its
// children cover, indexed like spans. Children on other goroutines
// that outlive or predate their parent count only inside the parent.
func selfTimes(spans []span) []int64 {
	idx := make(map[int32]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if p, ok := idx[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], interval{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := interval{s.Start, s.End}
		self[i] = iv.hi - iv.lo - coveredLength(children[i], iv)
	}
	return self
}

// layerTimes aggregates a trace: the summed self time and call count
// per span name, and the op-time coverage — the share of root span
// time that the layer spans under the roots account for.
type layerTimes struct {
	self     map[string]time.Duration
	total    map[string]time.Duration
	count    map[string]int
	ops      int
	opMs     []float64 // each op's root span, ms
	opTime   time.Duration
	rootSelf time.Duration
}

func aggregate(spans []span) layerTimes {
	lt := layerTimes{self: map[string]time.Duration{}, total: map[string]time.Duration{}, count: map[string]int{}}
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Parent == 0 && s.Op != 0 {
			lt.ops++
			lt.opMs = append(lt.opMs, ms(time.Duration(s.End-s.Start)))
			lt.opTime += time.Duration(s.End - s.Start)
			lt.rootSelf += time.Duration(self[i])
			continue
		}
		lt.self[s.Name] += time.Duration(self[i])
		lt.total[s.Name] += time.Duration(s.End - s.Start)
		lt.count[s.Name]++
	}
	return lt
}

// coverage is the share of op time the layer self times account for.
func (lt layerTimes) coverage() float64 {
	if lt.opTime <= 0 {
		return 0
	}
	return 1 - float64(lt.rootSelf)/float64(lt.opTime)
}

// selfMsPerOp is a layer's self time per op, in milliseconds.
func (lt layerTimes) selfMsPerOp(name string) float64 {
	return perOp(ms(lt.self[name]), lt.ops)
}

// totalMsPerOp is a layer's span time (children included) per op.
func (lt layerTimes) totalMsPerOp(name string) float64 {
	return perOp(ms(lt.total[name]), lt.ops)
}

func perOp(v float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return v / float64(ops)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the p-quantile (0..1) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := float64(len(s)-1) * p
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
