package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/edatool"
	"repro/internal/exp"
	"repro/internal/llm"
	"repro/internal/llm/provider"
	"repro/internal/runner"
)

var sweepWorkload = workload{
	name:      "sweep",
	why:       "cold checkpointed Table-1 sweep (39 problems x 3 models x 2 HDLs) through exp.Run: provider, core, frontend, edatool and runner checkpoint writes",
	setupReps: 9,
	setup:     setupSweep,
}

// sweepExtra is how many problems the seed draws beside the 13 golden
// ones: 39 problems x 3 models x 2 HDLs = 234 cells per pass.
const sweepExtra = 26

type sweepInst struct {
	problems []*bench.Problem
	golden   golden
	dir      string
	buildMs  float64
}

func setupSweep(seed int64) (instance, error) {
	t0 := time.Now()
	suite := bench.NewSuite()
	buildMs := ms(time.Since(t0))
	g, ids, err := loadGolden()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	problems, err := pickProblems(suite, ids, sweepExtra, rng)
	if err != nil {
		return nil, err
	}
	dir, err := scratchDir("sweep")
	if err != nil {
		return nil, err
	}
	return &sweepInst{problems: problems, golden: g, dir: dir, buildMs: buildMs}, nil
}

func (s *sweepInst) close() { os.RemoveAll(s.dir) }

// group is one exp.Run call of a pass: one model over one HDL.
type group struct {
	model *llm.Profile
	lang  edatool.Language
}

// groupCounts are a group's deterministic-in-principle counters.
type groupCounts struct {
	ckptWrites, parseHits, parseMisses, designHits, designMisses int
}

func (c *groupCounts) addCache(d edatool.CacheStats) {
	c.parseHits += d.ParseHits
	c.parseMisses += d.ParseMisses
	c.designHits += d.DesignHits
	c.designMisses += d.DesignMisses
}

// pass is one cold sweep: a fresh result cache and design cache.
type pass struct {
	cache *runner.Cache
	dc    *edatool.DesignCache
	dir   string
}

func (s *sweepInst) newPass(n int, tag string) (*pass, error) {
	dir := filepath.Join(s.dir, fmt.Sprintf("%s-pass%d", tag, n))
	cache, err := runner.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	return &pass{cache: cache, dc: edatool.NewDesignCache(), dir: dir}, nil
}

func (s *sweepInst) run(seconds float64, traced bool) (*outcome, error) {
	out := &outcome{}
	timed := map[cellID]any{}
	first, counts, err := s.runTimed(seconds, out, timed)
	if err != nil || !traced {
		return out, err
	}
	untracedP50 := percentile(out.latencies, 0.5)
	rec := newRecorder()
	settle()
	w := startWindow()
	ts, err := s.runTraced(rec, first, out, timed)
	if err != nil {
		return nil, err
	}
	_, f := w.measure()
	out.spans = rec
	lt := aggregate(rec.snapshot())
	m := s.layerMetrics(lt, counts, ts)
	m["trace.overhead_pct"] = 100 * (f*median(lt.opMs)/untracedP50 - 1)
	out.layer = m
	return out, nil
}

// runTimed sweeps whole cold passes through exp.Run for about the
// given time, so every run weighs the models and HDLs alike. It returns
// the groups of the first pass and their counts: the traced sweep
// repeats that pass, and count determinism compares the two.
func (s *sweepInst) runTimed(seconds float64, out *outcome, timed map[cellID]any) ([]group, groupCounts, error) {
	var first []group
	var counts groupCounts
	alloc0 := readAlloc()
	for n := 0; another(n, out.raw, seconds); n++ {
		c := &counts
		if n > 0 {
			c = &groupCounts{}
		}
		settle()
		p, err := s.newPass(n, "timed")
		if err != nil {
			return nil, counts, err
		}
		r := &runner.Runner{Workers: workers(), Cache: p.cache}
		for _, model := range llm.Profiles() {
			for _, lang := range languages {
				g := group{model, lang}
				if n == 0 {
					first = append(first, g)
				}
				s.timedGroup(r, p.dc, g, out, timed, c)
			}
		}
		if err := os.RemoveAll(p.dir); err != nil {
			return nil, counts, err
		}
	}
	out.allocB = readAlloc() - alloc0
	return first, counts, nil
}

// lineLog records when each progress line arrives.
type lineLog struct {
	mu    sync.Mutex
	lines []string
	at    []time.Time
}

func (l *lineLog) Write(b []byte) (int, error) {
	now := time.Now()
	l.mu.Lock()
	l.lines = append(l.lines, string(b))
	l.at = append(l.at, now)
	l.mu.Unlock()
	return len(b), nil
}

// timedGroup runs one group through exp.Run. A cell's latency runs
// from its session opening (its first state) to the runner reporting
// it done (after its result is stored).
func (s *sweepInst) timedGroup(r *runner.Runner, dc *edatool.DesignCache, g group, out *outcome, timed map[cellID]any, counts *groupCounts) {
	var mu sync.Mutex
	opened := map[string]time.Time{}
	lines := &lineLog{}
	r.Progress = runner.NewProgress(lines)
	st0, dc0 := r.Stats(), dc.Stats()
	w := startWindow()
	sum := exp.Run(g.model, g.lang, exp.Options{
		Problems:    s.problems,
		Runner:      r,
		DesignCache: dc,
		Checkpoint:  true,
		Configure: func(c *core.Config) {
			c.Provider = sessionClock{c.Provider, func(id string) {
				now := time.Now()
				mu.Lock()
				opened[id] = now
				mu.Unlock()
			}}
		},
	})
	wall, f := w.measure()
	out.raw += wall
	out.elapsed += scale(wall, f)
	counts.ckptWrites += r.Stats().CheckpointsWritten - st0.CheckpointsWritten
	counts.addCache(dc.Stats().Sub(dc0))

	out.attempted += len(s.problems)
	for i, line := range lines.lines {
		status, job := progressFields(line)
		problem, _, _ := strings.Cut(job, "/")
		start, ok := opened[problem]
		if status != runner.Executed.String() || !ok {
			continue // counted as failed below: no outcome
		}
		out.latencies = append(out.latencies, f*ms(lines.at[i].Sub(start)))
	}
	got := map[string]exp.ProblemOutcome{}
	for _, o := range sum.Outcomes {
		got[o.ID] = o
	}
	for _, p := range s.problems {
		c := cellID{p.ID, g.model.Name(), g.lang.String()}
		o, ok := got[p.ID]
		if !ok {
			out.fail("cell %s: no outcome", c)
			continue
		}
		if err := s.golden.check(c, o); err != nil {
			out.fail("%v", err)
			continue
		}
		v := jsonValue(o)
		if prev, seen := timed[c]; seen && !reflect.DeepEqual(prev, v) {
			out.fail("cell %s differs between passes", c)
			continue
		}
		timed[c] = v
	}
}

// progressFields extracts the status and job from a runner progress
// line ("[ 3/39] run problem/model/lang (0.1s) ...").
func progressFields(line string) (status, job string) {
	_, rest, ok := strings.Cut(line, "] ")
	if f := strings.Fields(rest); ok && len(f) >= 2 {
		return f[0], f[1]
	}
	return "", ""
}

// stepSpan names the span of a Machine.Step by the state it runs.
var stepSpan = func() map[core.State]string {
	m := map[core.State]string{}
	for st := core.State(0); st < core.NumStates; st++ {
		m[st] = "core.step." + st.String()
	}
	return m
}()

// runTraced drives the groups of one pass cell by cell through the
// public calls exp.Run's checkpointed path makes, with a span around
// each.
func (s *sweepInst) runTraced(rec *recorder, groups []group, out *outcome, timed map[cellID]any) (tracedSweep, error) {
	ts := tracedSweep{probe: &providerProbe{rec: rec}}
	counts := &ts.counts
	var op int32
	var opMu sync.Mutex
	var ckptBytes, ckpts int
	p, err := s.newPass(0, "traced")
	if err != nil {
		return ts, err
	}
	defer os.RemoveAll(p.dir)
	for _, g := range groups {
		cfg := core.DefaultConfig(g.model, g.lang)
		cfg.Provider = ts.probe.tracedStack(g.model, provider.DefaultStackConfig(), nil)
		cfg.DesignCache = p.dc
		dc0 := p.dc.Stats()
		jobs := make([]runner.Job, len(s.problems))
		for j, prob := range s.problems {
			jobs[j] = runner.Job{Problem: prob.ID, Model: g.model.Name(), Language: g.lang.String(), Config: cfg.Fingerprint()}
		}
		results := runner.Execute(&runner.Runner{Workers: workers()}, jobs, func(j int, job runner.Job) (tracedCell, error) {
			opMu.Lock()
			op++
			id := op
			opMu.Unlock()
			return s.tracedCell(rec, p.cache, cfg, s.problems[j], g.lang, job, id)
		})
		counts.addCache(p.dc.Stats().Sub(dc0))
		for j, res := range results {
			c := cellID{s.problems[j].ID, g.model.Name(), g.lang.String()}
			counts.ckptWrites += res.Value.ckptWrites
			for _, cp := range res.Value.ckpts {
				data, _ := json.MarshalIndent(cp, "", " ")
				ckptBytes += len(data)
				ckpts++
			}
			want, ok := timed[c]
			out.attempted++
			switch {
			case !ok:
				// already counted as failed in the timed sweep
			case res.Err != nil:
				out.fail("traced cell %s: %v", c, res.Err)
			case !reflect.DeepEqual(jsonValue(res.Value.outcome), want):
				out.fail("cell %s differs between the timed and the traced sweep", c)
			}
		}
	}
	if ckpts > 0 {
		ts.ckptKB = float64(ckptBytes) / 1024 / float64(ckpts)
	}
	return ts, nil
}

// tracedSweep is what the traced sweep measures beside its spans.
type tracedSweep struct {
	counts groupCounts
	probe  *providerProbe
	ckptKB float64
}

func (s *sweepInst) layerMetrics(lt layerTimes, timed groupCounts, ts tracedSweep) map[string]float64 {
	m := map[string]float64{"suite.build_ms": s.buildMs}
	ts.probe.metrics(m, lt.ops)
	m["provider.busy_ms"] = lt.totalMsPerOp("provider.call")
	steps := 0
	for st := core.State(0); st < core.NumStates; st++ {
		steps += lt.count[stepSpan[st]]
		if st != core.StateDone {
			m["core.step_self_ms."+st.String()] = lt.selfMsPerOp(stepSpan[st])
		}
	}
	m["core.steps"] = perOp(float64(steps), lt.ops)
	m["core.ckpt_encode_ms"] = lt.selfMsPerOp("core.checkpoint")
	m["exp.judge_ms"] = lt.selfMsPerOp("exp.outcome")
	m["runner.ckpt_writes"] = perOp(float64(ts.counts.ckptWrites), lt.ops)
	m["runner.ckpt_write_ms"] = lt.selfMsPerOp("runner.store_ckpt")
	m["runner.ckpt_kb"] = ts.ckptKB
	m["runner.store_ms"] = lt.selfMsPerOp("runner.store")
	m["runner.load_ms"] = lt.selfMsPerOp("runner.load")
	m["runner.hit_ratio"] = 0 // every pass is cold: no load hits (a hit fails the cell)
	m["runner.ckpt_writes_spread"] = float64(absInt(timed.ckptWrites - ts.counts.ckptWrites))
	m["edatool.parse_hit_ratio"] = ratio(timed.parseHits, timed.parseHits+timed.parseMisses)
	m["edatool.design_hit_ratio"] = ratio(timed.designHits, timed.designHits+timed.designMisses)
	m["edatool.parse_hits"] = float64(timed.parseHits)
	m["edatool.parse_hits_spread"] = float64(absInt(timed.parseHits - ts.counts.parseHits))
	m["trace.coverage_pct"] = 100 * lt.coverage()
	fmt.Fprintf(os.Stderr, "count determinism over identical cells: ckpt writes timed %d traced %d; parse hits timed %d/%d traced %d/%d\n",
		timed.ckptWrites, ts.counts.ckptWrites, timed.parseHits, timed.parseHits+timed.parseMisses,
		ts.counts.parseHits, ts.counts.parseHits+ts.counts.parseMisses)
	return m
}

type tracedCell struct {
	outcome    exp.ProblemOutcome
	ckptWrites int
	ckpts      []*core.Checkpoint
}

// tracedCell is one cell of exp.Run's checkpointed path: load, machine
// steps each followed by a checkpoint write, checkpoint delete, judge,
// store.
func (s *sweepInst) tracedCell(rec *recorder, cache *runner.Cache, cfg core.Config, prob *bench.Problem, lang edatool.Language, job runner.Job, op int32) (tracedCell, error) {
	var tc tracedCell
	root := rec.begin("op", op, 0)
	defer rec.end(root)
	call := func(name string, f func()) {
		sp := rec.begin(name, op, root)
		f()
		rec.end(sp)
	}
	var hit bool
	call("runner.load", func() { hit, _ = cache.Load(job, &tc.outcome) })
	if hit {
		return tc, fmt.Errorf("cold cache served %s", job)
	}
	var m *core.Machine
	call("core.new_machine", func() { m = core.New(cfg).NewMachine(prob) })
	var prior core.Checkpoint
	call("runner.load", func() { hit = cache.LoadCheckpoint(job, &prior) })
	if hit {
		return tc, fmt.Errorf("cold cache held a checkpoint for %s", job)
	}
	ctx := context.Background()
	for {
		sp := rec.begin(stepSpan[m.State()], op, root)
		done, err := m.Step(withSpan(ctx, spanCtx{rec, op, sp}))
		rec.end(sp)
		if err != nil {
			return tc, fmt.Errorf("%s aborted: %w", job, err)
		}
		var cp *core.Checkpoint
		call("core.checkpoint", func() { cp, err = m.Checkpoint() })
		if err != nil {
			return tc, err
		}
		call("runner.store_ckpt", func() { err = cache.StoreCheckpoint(job, cp) })
		if err == nil {
			tc.ckptWrites++
			tc.ckpts = append(tc.ckpts, cp)
		}
		if done {
			break
		}
	}
	call("runner.delete_ckpt", func() { cache.DeleteCheckpoint(job) })
	call("exp.outcome", func() { tc.outcome = exp.Outcome(prob, lang, cfg, "", m.Result()) })
	var err error
	call("runner.store", func() { err = cache.Store(job, tc.outcome) })
	return tc, err
}
