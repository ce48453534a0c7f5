package main

import (
	"context"
	"sync/atomic"

	"repro/internal/llm"
	"repro/internal/llm/provider"
)

// providerProbe counts and traces LLM calls: calls and errors as the
// pipeline sees them (outside the middleware stack), attempts as the
// model sees them (inside it, below retry).
type providerProbe struct {
	rec      *recorder
	calls    atomic.Int64
	attempts atomic.Int64
	errors   atomic.Int64
}

// tracedStack returns model's offline provider behind the given
// middleware stack, probed on both sides of the stack. opOf, when set,
// names the op and parent span of a session's calls (the job service
// runs them on its own goroutines); otherwise the calling context
// carries them.
func (p *providerProbe) tracedStack(model llm.Model, stack provider.StackConfig, opOf func(llm.GenRequest) (op, parent int32)) provider.Provider {
	inner := provider.Chain(provider.NewOffline(model), attemptCounter{p})
	return tracedProvider{Provider: provider.NewStack(inner, stack), probe: p, opOf: opOf}
}

func (p *providerProbe) metrics(m map[string]float64, ops int) {
	calls := float64(p.calls.Load())
	m["provider.calls"] = perOp(calls, ops)
	if calls > 0 {
		m["provider.attempts_per_call"] = float64(p.attempts.Load()) / calls
	}
	m["provider.errors"] = float64(p.errors.Load())
}

type attemptCounter struct{ p *providerProbe }

func (attemptCounter) Name() string { return "attempt-counter" }

func (a attemptCounter) Wrap(next provider.DoFunc) provider.DoFunc {
	return func(ctx context.Context, req *provider.Request) (provider.Response, error) {
		a.p.attempts.Add(1)
		return next(ctx, req)
	}
}

type tracedProvider struct {
	provider.Provider
	probe *providerProbe
	opOf  func(llm.GenRequest) (op, parent int32)
}

func (t tracedProvider) NewSession(req llm.GenRequest) (provider.Session, error) {
	s, err := t.Provider.NewSession(req)
	if err != nil {
		return nil, err
	}
	ts := &tracedSession{inner: s, probe: t.probe}
	if t.opOf != nil {
		ts.op, ts.parent = t.opOf(req)
		ts.fixed = true
	}
	return ts, nil
}

type tracedSession struct {
	inner      provider.Session
	probe      *providerProbe
	op, parent int32
	fixed      bool
}

func (s *tracedSession) Do(ctx context.Context, req *provider.Request) (provider.Response, error) {
	op, parent := s.op, s.parent
	if !s.fixed {
		if sc, ok := spanFrom(ctx); ok {
			op, parent = sc.op, sc.id
		}
	}
	id := s.probe.rec.begin("provider.call", op, parent)
	resp, err := s.inner.Do(ctx, req)
	s.probe.rec.end(id)
	s.probe.calls.Add(1)
	if err != nil {
		s.probe.errors.Add(1)
	}
	return resp, err
}

// Snapshot and Restore keep the wrapped session checkpointable.
func (s *tracedSession) Snapshot() ([]byte, error) { return provider.SnapshotSession(s.inner) }

func (s *tracedSession) Restore(data []byte) error { return provider.RestoreSession(s.inner, data) }

// sessionClock reports when each session opens. A sweep cell opens
// its one session in its first state, so this marks the cell's start
// without touching the calls of the untraced sweep.
type sessionClock struct {
	provider.Provider
	opened func(problem string)
}

func (c sessionClock) NewSession(req llm.GenRequest) (provider.Session, error) {
	c.opened(req.Problem.ID)
	return c.Provider.NewSession(req)
}
