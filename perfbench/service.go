package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/exp"
	"repro/internal/llm"
	"repro/internal/llm/provider"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

var serviceWorkload = workload{
	name:      "service",
	why:       "closed loop of nproc clients on an in-process aivrild: 3 in 4 fresh jobs, 1 in 4 result-cache reads, so serve and runner reads beside writes",
	setupReps: 5,
	setup:     setupService,
}

// The cells of the servicePrepop golden problems with the smallest
// reference testbenches, 18 of an epoch's 78 specs, are pre-populated
// in its cache directory, so they take the served-from-result-cache
// path.
const servicePrepop = 3

type serviceCell struct {
	id     cellID
	spec   serve.Spec
	prepop bool
}

type serviceInst struct {
	seed     int64
	suite    *bench.Suite
	cells    []serviceCell
	golden   golden
	expected map[cellID]any // in-process outcome per cell
	dir      string
	template string // result cells of the pre-populated specs
	buildMs  float64
}

func setupService(seed int64) (instance, error) {
	t0 := time.Now()
	suite := bench.NewSuite()
	buildMs := ms(time.Since(t0))
	g, ids, err := loadGolden()
	if err != nil {
		return nil, err
	}
	s := &serviceInst{seed: seed, suite: suite, golden: g, expected: map[cellID]any{}, buildMs: buildMs}
	// The stream is the 13 golden problems, each in every (model, HDL)
	// pair: 78 specs an epoch, a run cycling through fresh servers on
	// fresh cache directories, each serving the stream in an order the
	// seed draws anew, until the time is up. Which cells the stream
	// holds does not depend on the seed: what a cell costs depends on
	// its (model, HDL) pair as much as on its problem, and a stream of
	// 96 drawn problems with one pair each moved throughput by a sixth
	// between seeds (14.3 against 16.7 jobs/s, each seed run twice).
	// The pre-populated cells are those of the lightest problems:
	// serving them from the result cache costs the same whatever the
	// cell, the heavy cells all stay fresh work, and set-up, which
	// computes them, stays short.
	var probs []*bench.Problem
	for _, id := range ids {
		p := suite.ByID(id)
		if p == nil {
			return nil, fmt.Errorf("golden problem %q is not in the suite", id)
		}
		probs = append(probs, p)
	}
	sort.SliceStable(probs, func(i, j int) bool { return refTBSize(probs[i]) < refTBSize(probs[j]) })
	for i, p := range probs {
		for _, model := range llm.Profiles() {
			for _, lang := range languages {
				s.cells = append(s.cells, serviceCell{
					id:     cellID{p.ID, model.Name(), lang.String()},
					spec:   serve.Spec{Problem: p.ID, Model: model.Name(), Language: strings.ToLower(lang.String())},
					prepop: i < servicePrepop,
				})
			}
		}
	}
	if s.dir, err = scratchDir("service"); err != nil {
		return nil, err
	}
	s.template = filepath.Join(s.dir, "template")
	cache, err := runner.OpenCache(s.template)
	if err != nil {
		return nil, err
	}
	if err := s.evaluate(func(c serviceCell) bool { return c.prepop }, &runner.Runner{Workers: workers(), Cache: cache}); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *serviceInst) close() { os.RemoveAll(s.dir) }

// evaluate computes the in-process outcome of the selected cells that
// have none yet, through exp.Run on r.
func (s *serviceInst) evaluate(sel func(serviceCell) bool, r *runner.Runner) error {
	type key struct{ model, lang string }
	groups := map[key][]*bench.Problem{}
	for _, c := range s.cells {
		if _, done := s.expected[c.id]; sel(c) && !done {
			k := key{c.id.model, c.id.lang}
			groups[k] = append(groups[k], s.suite.ByID(c.id.problem))
		}
	}
	for k, probs := range groups {
		lang := edatool.Verilog
		if k.lang == edatool.VHDL.String() {
			lang = edatool.VHDL
		}
		sum := exp.Run(llm.ProfileByName(k.model), lang, exp.Options{Problems: probs, Runner: r})
		if sum.N != len(probs) {
			return fmt.Errorf("in-process evaluation of %s/%s: %d of %d cells", k.model, k.lang, sum.N, len(probs))
		}
		for _, o := range sum.Outcomes {
			s.expected[cellID{o.ID, k.model, k.lang}] = jsonValue(o)
		}
	}
	return nil
}

// served is one job as the client saw it.
type served struct {
	cell   serviceCell
	rec    serve.Record
	err    error
	lat    time.Duration
	submit time.Duration
	queued time.Duration // queued -> running, from the job's events
	runFor time.Duration // running -> last event
	cached bool
}

// serviceRun accumulates one measurement over its epochs.
type serviceRun struct {
	jobs     []served
	elapsed  time.Duration
	rejected atomic.Int64
	raw      time.Duration
}

func (s *serviceInst) run(seconds float64, traced bool) (*outcome, error) {
	out := &outcome{}
	alloc0 := readAlloc()
	timed, err := s.measure(seconds, nil, nil)
	if err != nil {
		return nil, err
	}
	out.allocB = readAlloc() - alloc0
	out.elapsed = timed.elapsed
	out.raw = timed.raw
	for _, j := range timed.jobs {
		out.latencies = append(out.latencies, ms(j.lat))
	}
	var tr *serviceRun
	var rec *recorder
	var probe *providerProbe
	if traced {
		rec = newRecorder()
		probe = &providerProbe{rec: rec}
		// One traced epoch gives the layer breakdown.
		if tr, err = s.measure(0, rec, probe); err != nil {
			return nil, err
		}
	}
	if err := s.evaluate(func(serviceCell) bool { return true }, &runner.Runner{Workers: workers()}); err != nil {
		return nil, err
	}
	s.check(out, timed)
	if !traced {
		return out, nil
	}
	s.check(out, tr)
	lt := aggregate(rec.snapshot())
	m := map[string]float64{"suite.build_ms": s.buildMs}
	probe.metrics(m, lt.ops)
	m["provider.busy_ms"] = lt.totalMsPerOp("provider.call")
	var submit, queued, runFor, lat []float64
	for _, j := range tr.jobs {
		submit = append(submit, ms(j.submit))
		queued = append(queued, ms(j.queued))
		runFor = append(runFor, ms(j.runFor))
		lat = append(lat, ms(j.lat))
	}
	m["serve.submit_ms"] = median(submit)
	m["serve.queue_wait_ms"] = median(queued)
	m["serve.run_ms"] = median(runFor)
	m["serve.rejected"] = float64(tr.rejected.Load())
	m["serve.cache_served_share"] = cachedShare(tr)
	m["runner.hit_ratio"] = m["serve.cache_served_share"]
	m["trace.coverage_pct"] = 100 * lt.coverage()
	m["trace.overhead_pct"] = 100 * (median(lat)/median(out.latencies) - 1)
	prepop := 0
	for _, c := range s.cells {
		if c.prepop {
			prepop++
		}
	}
	note("service mix: %d of %d specs pre-populated; measured cache-served share %.3f (untraced %.3f)",
		prepop, len(s.cells), m["serve.cache_served_share"], cachedShare(timed))
	out.layer = m
	out.spans = rec
	return out, nil
}

func cachedShare(r *serviceRun) float64 {
	n := 0
	for _, j := range r.jobs {
		if j.cached {
			n++
		}
	}
	return ratio(n, len(r.jobs))
}

// check counts every job whose verdict is missing or differs from the
// in-process outcome of its cell or the golden pin.
func (s *serviceInst) check(out *outcome, r *serviceRun) {
	for _, j := range r.jobs {
		out.attempted++
		switch {
		case j.err != nil:
			out.fail("job %s: %v", j.cell.id, j.err)
		case j.rec.Status != serve.StatusCompleted || j.rec.Outcome == nil:
			out.fail("job %s ended %s: %s", j.cell.id, j.rec.Status, j.rec.Error)
		case !reflect.DeepEqual(jsonValue(*j.rec.Outcome), s.expected[j.cell.id]):
			out.fail("job %s: outcome differs from the in-process outcome", j.cell.id)
		case j.rec.Verdict != verdict(*j.rec.Outcome):
			out.fail("job %s: verdict %q does not match its outcome", j.cell.id, j.rec.Verdict)
		case j.cached != j.cell.prepop:
			out.fail("job %s: served from cache %v, pre-populated %v", j.cell.id, j.cached, j.cell.prepop)
		default:
			if err := s.golden.check(j.cell.id, *j.rec.Outcome); err != nil {
				out.fail("%v", err)
			}
		}
	}
}

// verdict is the service's verdict for a completed outcome.
func verdict(o exp.ProblemOutcome) string {
	switch {
	case !o.LoopSyntaxOK:
		return "syntax-fail"
	case o.SelfVerified:
		return "pass"
	}
	return "func-fail"
}

// measure runs whole server epochs for about seconds of serving.
// With rec set, the epochs' providers and client calls are traced.
func (s *serviceInst) measure(seconds float64, rec *recorder, probe *providerProbe) (*serviceRun, error) {
	r := &serviceRun{}
	var op atomic.Int32
	for epoch := 0; another(epoch, r.raw, seconds); epoch++ {
		settle()
		if err := s.epoch(epoch, r, rec, probe, &op); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// opTable maps a cell to its op and the span its server-side calls
// belong under, for the provider probe.
type opTable struct {
	mu  sync.Mutex
	ops map[cellID][2]int32
}

func (t *opTable) set(c cellID, op, parent int32) {
	t.mu.Lock()
	t.ops[c] = [2]int32{op, parent}
	t.mu.Unlock()
}

func (t *opTable) get(c cellID) (int32, int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.ops[c]
	return v[0], v[1]
}

// countingTransport counts the server's 429 answers.
type countingTransport struct {
	http.RoundTripper
	rejected *atomic.Int64
}

func (c countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.RoundTripper.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusTooManyRequests {
		c.rejected.Add(1)
	}
	return resp, err
}

// epoch serves the whole spec stream once from a fresh server whose
// cache directory holds the pre-populated cells, so every epoch serves
// the same mix.
func (s *serviceInst) epoch(n int, r *serviceRun, rec *recorder, probe *providerProbe, op *atomic.Int32) error {
	dir := filepath.Join(s.dir, fmt.Sprintf("epoch%d", n))
	if err := copyTree(s.template, dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ops := &opTable{ops: map[cellID][2]int32{}}
	cfg := serve.Config{CacheDir: dir, Workers: workers(), Stack: provider.DefaultStackConfig()}
	if rec != nil {
		cfg.Registry = provider.NewRegistry()
		err := cfg.Registry.Register("offline", func(model llm.Model, bc provider.BuildConfig) (provider.Provider, error) {
			return probe.tracedStack(model, bc.Stack, func(req llm.GenRequest) (int32, int32) {
				return ops.get(cellID{req.Problem.ID, model.Name(), req.Language.String()})
			}), nil
		})
		if err != nil {
			return err
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return err
	}
	hs := serve.NewHTTPServer("", srv.Handler(), serve.DefaultHTTPTimeouts())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	tr := &http.Transport{MaxConnsPerHost: workers(), MaxIdleConnsPerHost: workers()}
	cl, err := client.New("http://"+ln.Addr().String(), client.Config{
		HTTPClient: &http.Client{Transport: countingTransport{tr, &r.rejected}},
	})
	if err == nil {
		first := len(r.jobs)
		w := startWindow()
		s.serveStream(n, cl, r, rec, ops, op)
		wall, f := w.measure()
		r.raw += wall
		r.elapsed += scale(wall, f)
		for i := first; i < len(r.jobs); i++ {
			r.jobs[i].lat = scale(r.jobs[i].lat, f)
		}
	}
	srv.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := hs.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if serr := <-serveErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	tr.CloseIdleConnections()
	return err
}

// serveStream runs the closed loop: nproc clients, each submitting its
// next spec once the previous verdict is in.
func (s *serviceInst) serveStream(n int, cl *client.Client, r *serviceRun, rec *recorder, ops *opTable, op *atomic.Int32) {
	order := rand.New(rand.NewSource(s.seed*1000 + int64(n))).Perm(len(s.cells))
	var next atomic.Int32
	var mu sync.Mutex
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				j := s.job(ctx, cl, s.cells[order[i]], rec, ops, op.Add(1))
				mu.Lock()
				r.jobs = append(r.jobs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// job submits one spec and waits for its verdict.
func (s *serviceInst) job(ctx context.Context, cl *client.Client, c serviceCell, rec *recorder, ops *opTable, op int32) served {
	j := served{cell: c}
	root := rec.begin("op", op, 0)
	awaitSpan := rec.reserve("serve.await", op, root)
	ops.set(c.id, op, awaitSpan)
	t0 := time.Now()
	sp := rec.begin("serve.submit", op, root)
	var rec0 serve.Record
	rec0, j.err = cl.Submit(ctx, c.spec)
	rec.end(sp)
	j.submit = time.Since(t0)
	if j.err == nil {
		rec.start(awaitSpan)
		j.rec, j.err = cl.Await(ctx, rec0.ID)
		rec.end(awaitSpan)
	}
	j.lat = time.Since(t0)
	rec.end(root)
	if j.err != nil {
		return j
	}
	j.cached = j.rec.Status == serve.StatusCompleted && j.rec.CheckpointsWritten == 0
	if rec == nil {
		return j
	}
	// The job's transcript, replayed after the op, dates its queueing.
	var queued, running, last time.Time
	j.err = cl.Events(ctx, rec0.ID, func(ev serve.Event) error {
		switch {
		case ev.Stage == "job" && ev.Detail == "queued":
			queued = ev.Time
		case ev.Stage == "job" && ev.Detail == "running":
			running = ev.Time
		}
		last = ev.Time
		return nil
	})
	if !queued.IsZero() && !running.IsZero() {
		j.queued = running.Sub(queued)
		j.runFor = last.Sub(running)
	}
	return j
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
