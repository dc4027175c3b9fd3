// Package engine is the one 2D-profiling core. Every way branch events
// reach a profiler in this repository — a live VM run feeding a
// trace.Sink through vm.Hooks.OnBranch, a sequential BTR1 stream, a
// parallel BTR2/BTR3 chunk decode, or the daemon's HTTP and wire
// ingest — terminates in the same execution structure:
//
//	event source ─→ sequential front-end ─→ one profiler
//	                (predictor + slice        (per-branch Figure 9
//	                 clock, per context)       statistics)
//
// The front-end is the part that cannot be parallelised: predictor
// state depends on the full interleaved branch order, and the slice
// clock is a whole-program count of retired branches. The per-branch
// counter updates after it are too cheap to pay for a hand-off to other
// goroutines, so they are applied inline, under the one mutex live
// Report/Snapshot readers take. Parallelism comes from the source side
// instead: ProfileStream decodes BTR2/BTR3 chunks across a worker pool
// ahead of the front-end, and the daemon runs sessions concurrently
// (DESIGN.md §3e).
//
// Multi-context streams (trace.Context tags from BTR3 or live
// CtxSink producers) fold in under one of two aggregation modes
// (DESIGN.md §3j): shared — the default — ignores the tags entirely,
// modelling an SMT-style shared predictor, and is bit-for-bit the
// classic single-context path; private gives every context its own
// front-end (predictor instance, slice clock, pending buffer) and its
// own profiler, so each context's report is exactly what profiling its
// sub-stream alone would produce. Context 0's front-end lives inline
// in the Engine — the single-context hot path allocates nothing and
// touches no map.
//
// internal/serve, internal/exp and the profile2d / profiled CLIs are
// thin adapters over this package.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/trace"
)

// pendingSize is the number of per-event Branch calls buffered before
// they are applied to the profiler under one lock acquisition; slice
// boundaries and the batch paths flush the buffer early.
const pendingSize = 512

// ErrMultiContext is returned by Finish/Report/Snapshot when the
// stream carried more than one execution context under private
// aggregation: the per-context profiles cover overlapping PCs, so a
// single merged report would be meaningless. Use ContextReports or
// FinishContexts instead.
var ErrMultiContext = errors.New("engine: stream carried multiple execution contexts under private aggregation (use ContextReports/FinishContexts)")

// Options configure one engine run beyond the core profiling Config.
type Options struct {
	// Workers sizes the chunk-decode pool ProfileStream runs ahead of
	// the front-end for BTR2/BTR3 streams. <= 0 means one per available
	// CPU; 1 decodes sequentially. It never changes the profiler's work
	// or its output.
	Workers int
	// Predictor names the front-end branch predictor. Required for
	// core.MetricAccuracy; for MetricBias it is validated when non-empty
	// and never instantiated (edge profiling consults no predictor).
	Predictor string
	// Aggregation selects how multi-context streams fold into predictor
	// and profiler state: bpred.AggShared (the zero value) ignores
	// context tags — one table set, one slice clock, one report, the
	// historical behaviour; bpred.AggPrivate gives each context private
	// predictor tables, history, slice clock and profiler, reported
	// through ContextReports/FinishContexts. Single-context streams
	// behave identically in both modes.
	Aggregation bpred.AggMode
	// Static optionally carries the asmcheck branch classification of
	// the program behind the stream (asmcheck.StaticClasses); reports
	// are annotated with the static prefilter column. nil leaves reports
	// byte-identical to unannotated runs.
	Static map[trace.PC]string
	// OnSlice, when set, is invoked by the front-end once per completed
	// slice (the daemon counts slices in /metrics through it). Under
	// private aggregation it fires for every context's slice boundary.
	OnSlice func()
}

// ctxFE is one execution context's state: its predictor instance,
// slice clock, per-event pending buffer, predictor scratch and
// profiler. Context 0's ctxFE is embedded in the Engine; the rest are
// allocated lazily on first sight of their context (private
// aggregation only — shared mode routes everything through context 0).
type ctxFE struct {
	ctx  trace.Context
	pred bpred.Predictor // nil for MetricBias
	prof *core.Profiler  // touched only under Engine.mu

	pending     []trace.Event // per-event Branch calls not yet applied
	pendingHits []bool        // their prediction outcomes; nil for MetricBias
	hits        []bool        // scratch for the batched predictor path
	hitWords    []uint64      // scratch for the SoA predictor path

	sliceExec int64 // retired branches since the context's last boundary
}

// Engine is one profiling run: the sequential front-end state
// (per-context predictor, slice clock and pending buffer) plus the
// profilers it feeds. It implements trace.Sink, trace.BatchSink,
// trace.SoABatchSink and trace.CtxSink, so any event source — live VM
// hooks, trace readers, the BTR2/BTR3 parallel decode pipeline, HTTP
// ingest loops — can drive it directly.
//
// The feeding goroutine owns Branch/BranchBatch/Finish/Abort; they
// must not be called concurrently. Report, ContextReports and Snapshot
// are safe from other goroutines while feeding continues (live
// reports).
type Engine struct {
	cfg  core.Config
	opts Options

	cset     *bpred.ContextSet // context-keyed predictor factory (accuracy metric)
	predName string

	// mu guards every context's profiler and the ctxs map against live
	// readers. The feeding goroutine is the only writer, so it reads
	// ctxs without the lock.
	mu   sync.Mutex
	c0   ctxFE                    // context 0 — the single-context fast path
	ctxs map[trace.Context]*ctxFE // contexts > 0, private aggregation only

	soaSpan trace.SoABatch // scratch for private-mode SoA span repacking

	drained bool
	// The fixed final reports, published by Finish/FinishContexts and
	// read by live readers on other goroutines.
	final    atomic.Pointer[core.Report]
	finalCtx atomic.Pointer[map[trace.Context]*core.Report]
}

// New validates the configuration and assembles the engine.
func New(cfg core.Config, opts Options) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{cfg: cfg, opts: opts}
	// The predictor name is validated in both metric modes, mirroring
	// twodprof.Profile, so a typo fails loudly instead of silently
	// profiling bias; MetricBias additionally accepts an empty name.
	// Construction goes through the context-keyed front-end so private
	// aggregation can clone per-context instances later.
	if cfg.Metric == core.MetricAccuracy || opts.Predictor != "" {
		cset, err := bpred.NewContextSet(opts.Predictor, opts.Aggregation)
		if err != nil {
			return nil, err
		}
		if cfg.Metric == core.MetricAccuracy {
			e.cset = cset
			e.c0.pred = cset.For(0)
			e.predName = e.c0.pred.Name()
		}
	}
	prof, err := core.NewShardProfiler(cfg, e.predName)
	if err != nil {
		return nil, err
	}
	e.c0.prof = prof
	return e, nil
}

// private reports whether multi-context events get per-context state.
func (e *Engine) private() bool { return e.opts.Aggregation == bpred.AggPrivate }

// fe resolves the front-end for one execution context, allocating it
// on first sight. Context 0 — the only context a classic stream ever
// has — resolves to the inline fast-path state without touching the
// map.
func (e *Engine) fe(ctx trace.Context) *ctxFE {
	if ctx == 0 {
		return &e.c0
	}
	if fe, ok := e.ctxs[ctx]; ok {
		return fe
	}
	// The config and predictor name were validated in New, so failure
	// here is an invariant violation, not an input error.
	prof, err := core.NewShardProfiler(e.cfg, e.predName)
	if err != nil {
		panic(fmt.Sprintf("engine: profiler for validated config: %v", err))
	}
	fe := &ctxFE{ctx: ctx, prof: prof}
	if e.cset != nil {
		fe.pred = e.cset.For(ctx)
	}
	e.mu.Lock()
	if e.ctxs == nil {
		e.ctxs = make(map[trace.Context]*ctxFE)
	}
	e.ctxs[ctx] = fe
	e.mu.Unlock()
	return fe
}

// Branch implements trace.Sink: the per-event front-end — predict
// (accuracy metric), buffer, advance the slice clock. Per-event events
// belong to context 0; context-tagged producers use BranchCtx or the
// batch paths.
func (e *Engine) Branch(pc trace.PC, taken bool) {
	hit := taken
	if e.c0.pred != nil {
		hit = e.c0.pred.Predict(pc) == taken
		e.c0.pred.Update(pc, taken)
	}
	e.push(&e.c0, trace.Event{PC: pc, Taken: taken}, hit)
}

// BranchCtx implements trace.CtxSink: Branch observed on an execution
// context. Under shared aggregation (and always for context 0) it is
// exactly Branch; under private aggregation the event flows through
// its context's own predictor and slice clock.
func (e *Engine) BranchCtx(ctx trace.Context, pc trace.PC, taken bool) {
	if ctx == 0 || !e.private() {
		e.Branch(pc, taken)
		return
	}
	fe := e.fe(ctx)
	hit := taken
	if fe.pred != nil {
		hit = fe.pred.Predict(pc) == taken
		fe.pred.Update(pc, taken)
	}
	e.push(fe, trace.Event{PC: pc, Ctx: ctx, Taken: taken}, hit)
}

// push buffers one predicted event and advances its context's clock.
func (e *Engine) push(fe *ctxFE, ev trace.Event, hit bool) {
	if fe.pending == nil {
		fe.pending = make([]trace.Event, 0, pendingSize)
		if fe.pred != nil {
			fe.pendingHits = make([]bool, 0, pendingSize)
		}
	}
	fe.pending = append(fe.pending, ev)
	if fe.pred != nil {
		fe.pendingHits = append(fe.pendingHits, hit)
	}
	fe.sliceExec++
	switch {
	case fe.sliceExec >= e.cfg.SliceSize:
		e.endSlice(fe)
	case len(fe.pending) >= pendingSize:
		e.mu.Lock()
		e.flushLocked(fe)
		e.mu.Unlock()
	}
}

// flushLocked applies the context's pending per-event buffer. Callers
// hold mu.
func (e *Engine) flushLocked(fe *ctxFE) {
	if len(fe.pending) == 0 {
		return
	}
	fe.prof.OutcomeBatch(fe.pending, fe.pendingHits)
	fe.pending = fe.pending[:0]
	fe.pendingHits = fe.pendingHits[:0]
}

// endSlice closes the context's current slice after every event
// buffered for it and resets its clock.
func (e *Engine) endSlice(fe *ctxFE) {
	e.mu.Lock()
	e.flushLocked(fe)
	fe.prof.EndSlice()
	e.mu.Unlock()
	fe.sliceExec = 0
	if e.opts.OnSlice != nil {
		e.opts.OnSlice()
	}
}

// BranchBatch implements trace.BatchSink. Accuracy-metric runs thread
// the whole batch through the predictor's devirtualized fast path
// (bpred.ApplyBatch) before it reaches the profiler, amortising the
// two interface dispatches per event that dominate replay. The slice
// clock then advances a span at a time — the only place a batch must
// split is a slice boundary. The result is exactly equivalent to
// calling Branch (or, under private aggregation, BranchCtx) for each
// event in order; private mode first splits the batch into
// same-context runs.
func (e *Engine) BranchBatch(events []trace.Event) {
	if e.private() {
		for i := 0; i < len(events); {
			ctx := events[i].Ctx
			j := i + 1
			for j < len(events) && events[j].Ctx == ctx {
				j++
			}
			e.branchBatch(e.fe(ctx), events[i:j])
			i = j
		}
		return
	}
	e.branchBatch(&e.c0, events)
}

// branchBatch is BranchBatch for one context's front-end.
func (e *Engine) branchBatch(fe *ctxFE, events []trace.Event) {
	var hits []bool
	if fe.pred != nil {
		if cap(fe.hits) < len(events) {
			fe.hits = make([]bool, len(events))
		}
		hits = fe.hits[:len(events)]
		bpred.ApplyBatch(fe.pred, events, hits)
	}
	for len(events) > 0 {
		n := e.spanLen(fe, len(events))
		var h []bool
		if hits != nil {
			h = hits[:n]
			hits = hits[n:]
		}
		e.mu.Lock()
		e.flushLocked(fe)
		fe.prof.OutcomeBatch(events[:n], h)
		e.mu.Unlock()
		events = events[n:]
		e.advance(fe, n)
	}
}

// BranchBatchSoA implements trace.SoABatchSink: a whole decoded batch
// in struct-of-arrays form, exactly equivalent to calling Branch for
// each event in order. The predictor runs its SoA kernel into a packed
// hit bitmap; the profiler then takes bitmap sub-ranges (bit offsets,
// no re-packing) a slice-span at a time, so a BTR2 replay runs
// decode→predict→profile with no intermediate []Event at all.
//
// Under private aggregation a batch with a context lane is split into
// same-context spans; each span is repacked word-aligned (trace.
// SoABatch.Span) so the per-context predictor still runs its SoA
// kernel. Batches without a context lane — every BTR1/BTR2 stream —
// take the classic path untouched.
func (e *Engine) BranchBatchSoA(b *trace.SoABatch) {
	if e.private() && len(b.Ctxs) > 0 {
		ctxs := b.Ctxs
		for i := 0; i < len(ctxs); {
			ctx := ctxs[i]
			j := i + 1
			for j < len(ctxs) && ctxs[j] == ctx {
				j++
			}
			if i == 0 && j == len(ctxs) {
				// Single-context batch: no repacking needed.
				e.branchBatchSoA(e.fe(ctx), b)
				return
			}
			b.Span(&e.soaSpan, i, j)
			e.branchBatchSoA(e.fe(ctx), &e.soaSpan)
			i = j
		}
		return
	}
	e.branchBatchSoA(&e.c0, b)
}

// branchBatchSoA is BranchBatchSoA for one context's front-end. Bits
// bitOff..bitOff+n of the bitmaps belong to each span; the correctness
// bitmap is nil exactly when the metric needs no outcomes (MetricBias).
func (e *Engine) branchBatchSoA(fe *ctxFE, b *trace.SoABatch) {
	var hw []uint64
	if fe.pred != nil {
		words := (b.Len() + 63) / 64
		if cap(fe.hitWords) < words {
			fe.hitWords = make([]uint64, words)
		}
		hw = fe.hitWords[:words]
		bpred.ApplyBatchSoA(fe.pred, b.PCs, b.Taken, hw)
	}
	pcs := b.PCs
	bitOff := 0
	for len(pcs) > 0 {
		n := e.spanLen(fe, len(pcs))
		e.mu.Lock()
		e.flushLocked(fe)
		fe.prof.OutcomeBatchSoA(pcs[:n], b.Taken, hw, bitOff)
		e.mu.Unlock()
		pcs = pcs[n:]
		bitOff += n
		e.advance(fe, n)
	}
}

// spanLen returns how many of the next n events fit in the context's
// current slice.
func (e *Engine) spanLen(fe *ctxFE, n int) int {
	if room := e.cfg.SliceSize - fe.sliceExec; int64(n) > room {
		return int(room)
	}
	return n
}

// advance moves the context's clock past an applied span of n events,
// ending the slice when the span filled it.
func (e *Engine) advance(fe *ctxFE, n int) {
	fe.sliceExec += int64(n)
	if fe.sliceExec >= e.cfg.SliceSize {
		e.endSlice(fe)
	}
}

// frontEnds returns every context's front-end in ascending context
// order. Only the feeding goroutine calls it.
func (e *Engine) frontEnds() []*ctxFE {
	out := []*ctxFE{&e.c0}
	for _, ctx := range e.Contexts()[1:] {
		out = append(out, e.ctxs[ctx])
	}
	return out
}

// drain applies every context's pending buffer; idempotent.
func (e *Engine) drain() {
	if e.drained {
		return
	}
	e.drained = true
	fes := e.frontEnds()
	e.mu.Lock()
	for _, fe := range fes {
		e.flushLocked(fe)
	}
	e.mu.Unlock()
}

// finishFlush applies the offline partial-slice flush rule to every
// context's clock and drains; idempotent.
func (e *Engine) finishFlush() {
	if e.drained {
		return
	}
	for _, fe := range e.frontEnds() {
		if e.cfg.FlushPartialSlice && fe.sliceExec > 0 && fe.sliceExec >= e.cfg.SliceSize/2 {
			e.endSlice(fe)
		}
	}
	e.drain()
}

// Finish completes the stream: applies the offline partial-slice flush
// rule to each context's clock, applies any buffered events, and
// assembles the final (annotated) report. Idempotent — repeated calls
// return the same report. A multi-context private run has no single
// merged report; Finish still drains, then returns ErrMultiContext
// (use FinishContexts).
func (e *Engine) Finish() (*core.Report, error) {
	if rep := e.final.Load(); rep != nil {
		return rep, nil
	}
	e.finishFlush()
	rep, err := e.Report()
	if err != nil {
		return nil, err
	}
	e.final.Store(rep)
	return rep, nil
}

// FinishContexts completes the stream like Finish but reports per
// execution context. A single-context run (or any shared-aggregation
// run) yields the map {0: report} with the report byte-identical to
// Finish's. Idempotent.
func (e *Engine) FinishContexts() (map[trace.Context]*core.Report, error) {
	if reps := e.finalCtx.Load(); reps != nil {
		return *reps, nil
	}
	e.finishFlush()
	reps, err := e.ContextReports()
	if err != nil {
		return nil, err
	}
	e.finalCtx.Store(&reps)
	return reps, nil
}

// Abort ends the run without the final slice flush (the stream failed
// mid-flight); the partial statistics remain queryable through Report.
func (e *Engine) Abort() { e.drain() }

// Report assembles an annotated report from the current profiler
// state: a live view while the stream is still flowing, the final
// report once Finish has fixed it. Safe to call from other goroutines
// while the owner keeps feeding. Returns ErrMultiContext once a
// private-mode stream has carried more than one context.
func (e *Engine) Report() (*core.Report, error) {
	if rep := e.final.Load(); rep != nil {
		return rep, nil
	}
	snap, err := e.Snapshot()
	if err != nil {
		return nil, err
	}
	rep := snap.Report()
	rep.AnnotateStatic(e.opts.Static)
	return rep, nil
}

// ContextReports assembles one annotated report per execution context:
// a live view while the stream is flowing, the final per-context
// reports once FinishContexts has fixed them. Context 0 is always
// present.
func (e *Engine) ContextReports() (map[trace.Context]*core.Report, error) {
	if reps := e.finalCtx.Load(); reps != nil {
		return *reps, nil
	}
	e.mu.Lock()
	snaps := map[trace.Context]*core.Snapshot{0: e.c0.prof.Snapshot()}
	for ctx, fe := range e.ctxs {
		snaps[ctx] = fe.prof.Snapshot()
	}
	e.mu.Unlock()
	out := make(map[trace.Context]*core.Report, len(snaps))
	for ctx, snap := range snaps {
		rep := snap.Report()
		rep.AnnotateStatic(e.opts.Static)
		out[ctx] = rep
	}
	return out, nil
}

// Contexts returns every execution context the engine holds state for,
// sorted ascending. Context 0 is always present; contexts > 0 appear
// only under private aggregation.
func (e *Engine) Contexts() []trace.Context {
	e.mu.Lock()
	out := make([]trace.Context, 0, 1+len(e.ctxs))
	out = append(out, 0)
	for ctx := range e.ctxs {
		out = append(out, ctx)
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Snapshot copies the current profiler state into one whole-run
// core.Snapshot — the persistence hook: the daemon's WAL checkpoints a
// finished engine's snapshot, and Snapshot().Report() on the recovered
// side reproduces Finish's report byte for byte. Safe to call from
// other goroutines while the owner keeps feeding; for a checkpoint call
// it after Finish or Abort so the state is frozen. Returns
// ErrMultiContext once a private-mode stream has carried more than one
// context.
func (e *Engine) Snapshot() (*core.Snapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.ctxs) > 0 {
		return nil, ErrMultiContext
	}
	return e.c0.prof.Snapshot(), nil
}

// QueueDepths returns nil: the engine applies events inline and queues
// nothing. It is kept because external benchmark code still reads it.
func (e *Engine) QueueDepths() []int { return nil }

// Workers returns the chunk-decode pool size the engine resolved to.
func (e *Engine) Workers() int { return e.opts.Workers }

// compile-time interface checks.
var (
	_ trace.Sink         = (*Engine)(nil)
	_ trace.BatchSink    = (*Engine)(nil)
	_ trace.SoABatchSink = (*Engine)(nil)
	_ trace.CtxSink      = (*Engine)(nil)
)
