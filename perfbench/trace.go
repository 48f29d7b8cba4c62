package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"stacktrack/internal/prog"
	"stacktrack/internal/sched"
	"stacktrack/internal/word"
)

// Span kinds: one per seam between the simulator's layers.
const (
	spRun         = iota // sched.Scheduler.Run
	spStep               // sched.Stepper.Step, i.e. prog.Driver.Step
	spPolicy             // sched.Policy Pick and Preempt
	spNext               // prog.Driver.Next, the workload generator
	spDone               // prog.Driver.OnDone, outcome classification
	spCoreRunner         // prog.Runner Start/Step of core.Runner
	spPlainRunner        // prog.Runner Start/Step of prog.PlainRunner
	spReclaim            // sched.Reclaimer hooks
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"sched.Run", "sched.Stepper.Step", "sched.Policy", "workload.Next",
	"prog.OnDone", "core.Runner", "prog.PlainRunner", "reclaim",
}

// maxSpans bounds the spans kept for the dump; aggregates cover all.
const maxSpans = 1 << 16

type spanRec struct {
	kind   uint8
	unit   int32
	parent int32 // index into tracer.spans, -1 when not kept
	start  int64
	end    int64
}

type openSpan struct {
	kind  uint8
	idx   int32
	start int64
	child int64 // time covered by child spans
}

// tracer records spans at the seams. Spans nest strictly (the simulation
// is one goroutine), so a stack of open spans gives each span's parent and
// the time its children cover; a span's self time is its duration minus
// that. Aggregates are kept per kind; the first maxSpans spans are kept in
// memory and written out when the run ends.
type tracer struct {
	base  time.Time
	unit  int32
	open  []openSpan
	calls [nSpanKinds]int64
	self  [nSpanKinds]int64
	spans []spanRec

	children [nSpanKinds]int64 // child spans opened inside spans of each kind
	steps    [nSpanKinds]int64 // Runner.Step calls, by runner kind
	lastTID  int
	repeats  int64 // Stepper.Step calls stepping the same thread as the previous one
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), lastTID: -1, spans: make([]spanRec, 0, maxSpans)}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

func (tr *tracer) begin(k uint8) {
	parent := int32(-1)
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1].idx
	}
	t := tr.now()
	idx := int32(-1)
	if len(tr.spans) < maxSpans {
		idx = int32(len(tr.spans))
		tr.spans = append(tr.spans, spanRec{kind: k, unit: tr.unit, parent: parent, start: t})
	}
	tr.open = append(tr.open, openSpan{kind: k, idx: idx, start: t})
}

func (tr *tracer) end() {
	t := tr.now()
	n := len(tr.open) - 1
	o := tr.open[n]
	tr.open = tr.open[:n]
	d := t - o.start
	tr.calls[o.kind]++
	tr.self[o.kind] += d - o.child
	if n > 0 {
		tr.open[n-1].child += d
		tr.children[tr.open[n-1].kind]++
	}
	if o.idx >= 0 {
		tr.spans[o.idx].end = t
	}
}

// spanCost is the host time one span adds by itself: inSpan inside its
// own interval, inParent to its parent's self time.
type spanCost struct{ inSpan, inParent float64 }

// calibrate measures spanCost on empty spans nested in one parent, as the
// median of several trials.
func calibrate() spanCost {
	const n = 1 << 14
	var in, par []float64
	for range 7 {
		cal := &tracer{base: time.Now(), spans: make([]spanRec, maxSpans)}
		cal.begin(spRun)
		for i := 0; i < n; i++ {
			cal.begin(spStep)
			cal.end()
		}
		cal.end()
		in = append(in, float64(cal.self[spStep])/n)
		par = append(par, float64(cal.self[spRun])/n)
	}
	return spanCost{median(in), median(par)}
}

// selfNs is the self time of kind k with the tracer's own cost taken out.
func (tr *tracer) selfNs(k int, c spanCost) float64 {
	return max(0, float64(tr.self[k])-float64(tr.calls[k])*c.inSpan-float64(tr.children[k])*c.inParent)
}

// dump writes the kept spans as JSON lines.
func (tr *tracer) dump(path string, units []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Parent int32  `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{spanNames[s.kind], units[s.unit], s.parent, s.start, s.end}); err != nil {
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

// stepperSpan wraps the prog.Driver the scheduler steps.
type stepperSpan struct {
	tr *tracer
	d  *prog.Driver
}

func (s stepperSpan) Step(t *sched.Thread) bool {
	tr := s.tr
	if t.ID == tr.lastTID {
		tr.repeats++
	}
	tr.lastTID = t.ID
	tr.begin(spStep)
	defer tr.end()
	return s.d.Step(t)
}

// runnerSpan wraps a prog.Runner.
type runnerSpan struct {
	tr    *tracer
	kind  uint8
	inner prog.Runner
}

func (r runnerSpan) Start(t *sched.Thread, op *prog.Op) {
	r.tr.begin(r.kind)
	defer r.tr.end()
	r.inner.Start(t, op)
}

func (r runnerSpan) Step(t *sched.Thread) bool {
	r.tr.steps[r.kind]++
	r.tr.begin(r.kind)
	defer r.tr.end()
	return r.inner.Step(t)
}

func (r runnerSpan) Busy() bool { return r.inner.Busy() }

// policySpan wraps a sched.Policy.
type policySpan struct {
	tr    *tracer
	inner sched.Policy
}

func (p policySpan) Pick(s *sched.Scheduler, cands []int) int {
	p.tr.begin(spPolicy)
	defer p.tr.end()
	return p.inner.Pick(s, cands)
}

func (p policySpan) Preempt(s *sched.Scheduler, ctx int) bool {
	p.tr.begin(spPolicy)
	defer p.tr.end()
	return p.inner.Preempt(s, ctx)
}

// reclaimerSpan wraps the reclamation scheme every thread calls through.
// Spans close in deferred calls because a transactional load inside
// ProtectLoad unwinds by panic when its segment aborts.
type reclaimerSpan struct {
	tr    *tracer
	inner sched.Reclaimer
}

func (r reclaimerSpan) Name() string { return r.inner.Name() }

func (r reclaimerSpan) Attach(t *sched.Thread) { r.inner.Attach(t) }

func (r reclaimerSpan) BeginOp(t *sched.Thread, opID int) {
	r.tr.begin(spReclaim)
	defer r.tr.end()
	r.inner.BeginOp(t, opID)
}

func (r reclaimerSpan) EndOp(t *sched.Thread) {
	r.tr.begin(spReclaim)
	defer r.tr.end()
	r.inner.EndOp(t)
}

func (r reclaimerSpan) ProtectLoad(t *sched.Thread, slot int, src word.Addr) uint64 {
	r.tr.begin(spReclaim)
	defer r.tr.end()
	return r.inner.ProtectLoad(t, slot, src)
}

func (r reclaimerSpan) Protect(t *sched.Thread, slot int, node word.Addr) {
	r.tr.begin(spReclaim)
	defer r.tr.end()
	r.inner.Protect(t, slot, node)
}

func (r reclaimerSpan) Retire(t *sched.Thread, p word.Addr) {
	r.tr.begin(spReclaim)
	defer r.tr.end()
	r.inner.Retire(t, p)
}

func (r reclaimerSpan) Drain(t *sched.Thread) {
	r.tr.begin(spReclaim)
	defer r.tr.end()
	r.inner.Drain(t)
}
