package main

import (
	"time"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
)

// Span kinds of the host-time ledger: one per trace.Phase, then the
// mutator's Step and BC's two notification handlers.
const (
	spanStep = trace.NumPhases + iota
	spanEvict
	spanReload
	numSpans
)

// ledger accumulates host self time and call counts per span kind. Spans
// nest (a collection runs inside the allocation that triggered it, an
// eviction notice inside the fault that caused it), so each span's self
// time is its duration minus the time its children cover. The simulator
// is single-threaded with one mark worker, so one stack serves every
// tenant of a fleet.
type ledger struct {
	stack      []frame
	self       [numSpans]time.Duration
	calls      [numSpans]uint64
	unbalanced int // Ends that did not match the innermost open span
}

type frame struct {
	kind  int
	start time.Time
	child time.Duration
}

func (l *ledger) begin(kind int) {
	l.stack = append(l.stack, frame{kind: kind, start: time.Now()})
}

func (l *ledger) end(kind int) {
	n := len(l.stack)
	if n == 0 || l.stack[n-1].kind != kind {
		l.unbalanced++
		return
	}
	f := l.stack[n-1]
	l.stack = l.stack[:n-1]
	d := time.Since(f.start)
	l.self[kind] += d - f.child
	l.calls[kind]++
	if n > 1 {
		l.stack[n-2].child += d
	}
}

// balanced reports whether every span opened was closed in order.
func (l *ledger) balanced() bool { return l.unbalanced == 0 && len(l.stack) == 0 }

// add folds o's totals into l.
func (l *ledger) add(o *ledger) {
	for k := range l.self {
		l.self[k] += o.self[k]
		l.calls[k] += o.calls[k]
	}
}

// spanTracer times the collector's phase spans on the way to the
// environment's own tracer.
type spanTracer struct {
	l     *ledger
	inner trace.Tracer
}

func (t spanTracer) Enabled() bool { return t.inner.Enabled() }

func (t spanTracer) Begin(p trace.Phase) {
	t.l.begin(int(p))
	t.inner.Begin(p)
}

func (t spanTracer) End(p trace.Phase) {
	t.inner.End(p)
	t.l.end(int(p))
}

func (t spanTracer) Point(e trace.Event, a1, a2 int64) { t.inner.Point(e, a1, a2) }

// handlerSpy times the notification handler a collector registered — the
// same interposition point fault.Interpose uses.
type handlerSpy struct {
	l     *ledger
	inner vmm.Handler
}

func (h handlerSpy) EvictionScheduled(p mem.PageID) {
	h.l.begin(spanEvict)
	h.inner.EvictionScheduled(p)
	h.l.end(spanEvict)
}

func (h handlerSpy) PageReloaded(p mem.PageID, wasEvicted bool) {
	h.l.begin(spanReload)
	h.inner.PageReloaded(p, wasEvicted)
	h.l.end(spanReload)
}

// tracedSource wraps a workload source. When the simulator asks it for a
// workload, the collector and its environment are fully assembled, so
// it installs the phase tracer and the handler spy there, and wraps the
// workload so every Step is timed.
type tracedSource struct {
	inner mutator.Source
	l     *ledger
}

func (s tracedSource) WorkloadName() string { return s.inner.WorkloadName() }

func (s tracedSource) NewWorkload(c gc.Collector, types mutator.Types, seed int64) (mutator.Workload, error) {
	env := c.Env()
	env.Trace = spanTracer{l: s.l, inner: env.Trace}
	// Only a registered handler is wrapped: registering one where there
	// was none would mark the process cooperative for the fleet arbiter.
	if h := env.Proc.Handler(); h != nil {
		env.Proc.Register(handlerSpy{l: s.l, inner: h})
	}
	wl, err := s.inner.NewWorkload(c, types, seed)
	if err != nil {
		return nil, err
	}
	return tracedWorkload{Workload: wl, l: s.l}, nil
}

type tracedWorkload struct {
	mutator.Workload
	l *ledger
}

func (w tracedWorkload) Step(quantum int) bool {
	w.l.begin(spanStep)
	more := w.Workload.Step(quantum)
	w.l.end(spanStep)
	return more
}
