// Package trace holds the simulator's lifecycle-event consumers (see
// sched.Tracer). The Recorder keeps events in a bounded in-memory buffer
// and renders them as a per-thread timeline: `stsim -trace N` shows
// exactly how segments commit and abort, when scans run, what they free,
// and where the scheduler preempts. The Profiler (profile.go) attributes
// every virtual cycle to a phase and program block (`stsim -profile`).
// Fanout joins several consumers onto one thread's seam.
package trace

import (
	"fmt"
	"io"

	"stacktrack/internal/cost"
	"stacktrack/internal/sched"
)

// Event is one recorded simulation event.
type Event struct {
	VTime cost.Cycles
	Tid   int
	HW    int // hardware context the emitting thread was pinned to
	Kind  sched.TraceKind
	Arg   uint64
}

// Recorder implements sched.Tracer with a bounded buffer. In the default
// (head) mode, events past the capacity are counted, not stored — the buffer
// keeps the *first* N events. In ring mode (NewRingRecorder) the buffer
// keeps the *last* N events, displacing the oldest, so the failure tail of a
// long fuzzing run is always visible.
type Recorder struct {
	cap     int
	events  []Event
	dropped uint64
	ring    bool
	head    int // ring mode: index of the oldest stored event once full
}

// NewRecorder creates a recorder holding at most the first capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Recorder{cap: capacity}
}

// NewRingRecorder creates a recorder holding at most the last capacity
// events: once full, each new event displaces the oldest (which is counted
// as dropped).
func NewRingRecorder(capacity int) *Recorder {
	r := NewRecorder(capacity)
	r.ring = true
	return r
}

// TraceEvent implements sched.Tracer. The timeline narrates operations,
// segments, scans, frees, preemptions and blocking; hand-offs, crashes
// and cycle attribution (TraceHandoff onward) are not recorded.
func (r *Recorder) TraceEvent(t *sched.Thread, k sched.TraceKind, arg uint64, _ cost.Cycles) {
	if k >= sched.TraceHandoff {
		return
	}
	e := Event{VTime: t.VTime(), Tid: t.ID, HW: t.HWContext(), Kind: k, Arg: arg}
	if len(r.events) < r.cap {
		r.events = append(r.events, e)
		return
	}
	r.dropped++
	if r.ring {
		r.events[r.head] = e
		r.head++
		if r.head == r.cap {
			r.head = 0
		}
	}
}

// Events returns the recorded events in emission order. In ring mode the
// slice is a copy rotated into chronological order.
func (r *Recorder) Events() []Event {
	if !r.ring || r.head == 0 {
		return r.events
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.head:]...)
	out = append(out, r.events[:r.head]...)
	return out
}

// Ring reports whether the recorder keeps the last (rather than the first)
// N events.
func (r *Recorder) Ring() bool { return r.ring }

// Dropped returns how many events exceeded the buffer: overflow events in
// head mode, displaced (oldest) events in ring mode.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Dump writes the timeline, one line per event:
//
//	00000000001234  t00/c00  kind        arg
//
// The virtual timestamp is fixed-width and zero-padded so lines from
// several dumps sort chronologically under `sort`, and each line names the
// emitting thread's hardware context (c<id>) so hyperthread-sibling
// interference is visible in the narrative.
func (r *Recorder) Dump(w io.Writer) error {
	if r.ring && r.dropped > 0 {
		if _, err := fmt.Fprintf(w, "(%d earlier events displaced past the %d-event ring)\n", r.dropped, r.cap); err != nil {
			return err
		}
	}
	for _, e := range r.Events() {
		var arg string
		switch e.Kind {
		case sched.TraceSegCommit:
			arg = fmt.Sprintf("%d blocks", e.Arg)
		case sched.TraceSegAbort:
			arg = abortName(e.Arg)
		case sched.TraceOpStart:
			arg = fmt.Sprintf("op %d", e.Arg)
		case sched.TraceScanStart:
			arg = fmt.Sprintf("%d pending", e.Arg)
		case sched.TraceScanEnd:
			arg = fmt.Sprintf("%d freed", e.Arg)
		case sched.TraceFree:
			arg = fmt.Sprintf("%#x", e.Arg)
		case sched.TraceSlowPath:
			arg = fmt.Sprintf("pc %d", e.Arg)
		default:
			arg = fmt.Sprintf("%d", e.Arg)
		}
		if _, err := fmt.Fprintf(w, "%014d  t%02d/c%02d  %-10s  %s\n", e.VTime, e.Tid, e.HW, e.Kind, arg); err != nil {
			return err
		}
	}
	if !r.ring && r.dropped > 0 {
		if _, err := fmt.Fprintf(w, "(+%d events dropped past the %d-event buffer)\n", r.dropped, r.cap); err != nil {
			return err
		}
	}
	return nil
}

// abortName renders a mem.AbortReason arg without importing mem (the raw
// values are part of the trace contract).
func abortName(v uint64) string {
	names := []string{"none", "conflict", "capacity", "preempt", "explicit", "unsupported"}
	if int(v) < len(names) {
		return names[v]
	}
	return fmt.Sprintf("reason-%d", v)
}

// Fanout returns one tracer delivering each event to every given tracer in
// order: nil for none, the tracer itself for one.
func Fanout(ts ...sched.Tracer) sched.Tracer {
	switch len(ts) {
	case 0:
		return nil
	case 1:
		return ts[0]
	}
	return tee(ts)
}

type tee []sched.Tracer

func (ts tee) TraceEvent(t *sched.Thread, k sched.TraceKind, arg uint64, c cost.Cycles) {
	for _, tr := range ts {
		tr.TraceEvent(t, k, arg, c)
	}
}

// Counts tallies events by kind (test and report support).
func (r *Recorder) Counts() map[sched.TraceKind]int {
	out := make(map[sched.TraceKind]int)
	for _, e := range r.events {
		out[e.Kind]++
	}
	return out
}
