package trace_test

import (
	"regexp"
	"strings"
	"testing"

	"stacktrack/internal/alloc"
	"stacktrack/internal/bench"
	"stacktrack/internal/cost"
	"stacktrack/internal/mem"
	"stacktrack/internal/sched"
	"stacktrack/internal/trace"
)

// tracedConfig is the small traced StackTrack list run the recorder tests
// share.
func tracedConfig(events int) bench.Config {
	return bench.Config{
		Structure:     bench.StructList,
		Scheme:        bench.SchemeStackTrack,
		Threads:       3,
		InitialSize:   100,
		KeyRange:      200,
		MutatePct:     50,
		WarmupCycles:  cost.FromSeconds(0.0002),
		MeasureCycles: cost.FromSeconds(0.003),
		MemWords:      1 << 20,
		TraceEvents:   events,
	}
}

func tracedRun(t *testing.T, events int) *bench.Result {
	t.Helper()
	res, err := bench.Run(tracedConfig(events))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRecorderCapturesLifecycle(t *testing.T) {
	res := tracedRun(t, 1<<20)
	r := res.Trace
	if r == nil || r.Len() == 0 {
		t.Fatal("no events recorded")
	}
	counts := r.Counts()
	for _, k := range []sched.TraceKind{
		sched.TraceOpStart, sched.TraceOpEnd, sched.TraceSegCommit,
		sched.TraceScanStart, sched.TraceScanEnd, sched.TraceFree,
	} {
		if counts[k] == 0 {
			t.Fatalf("no %v events recorded (counts: %v)", k, counts)
		}
	}
	// Scan starts and ends must pair up.
	if counts[sched.TraceScanStart] != counts[sched.TraceScanEnd] {
		t.Fatalf("scan start/end mismatch: %d vs %d",
			counts[sched.TraceScanStart], counts[sched.TraceScanEnd])
	}
	// Ops start at least as often as they end.
	if counts[sched.TraceOpStart] < counts[sched.TraceOpEnd] {
		t.Fatal("more op-end than op-start events")
	}
}

func TestRecorderPerThreadMonotonic(t *testing.T) {
	res := tracedRun(t, 1<<20)
	last := map[int]cost.Cycles{}
	for _, e := range res.Trace.Events() {
		if e.VTime < last[e.Tid] {
			t.Fatalf("thread %d time went backwards: %d after %d", e.Tid, e.VTime, last[e.Tid])
		}
		last[e.Tid] = e.VTime
	}
}

func TestRecorderBounded(t *testing.T) {
	res := tracedRun(t, 10)
	r := res.Trace
	if r.Len() > 10 {
		t.Fatalf("recorded %d events past the cap", r.Len())
	}
	if r.Dropped() == 0 {
		t.Fatal("expected drops with a 10-event buffer")
	}
}

func TestDumpFormat(t *testing.T) {
	res := tracedRun(t, 50)
	var sb strings.Builder
	if err := res.Trace.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "op-start") {
		t.Fatalf("dump missing op-start:\n%s", out)
	}
	if !strings.Contains(out, "dropped") {
		t.Fatal("dump should report dropped events")
	}
}

// TestDumpSortableTimestampsAndHWContext: every event line starts with a
// fixed-width zero-padded virtual timestamp (so `sort` orders lines
// chronologically) and names the emitting thread's hardware context.
func TestDumpSortableTimestampsAndHWContext(t *testing.T) {
	res := tracedRun(t, 50)
	var sb strings.Builder
	if err := res.Trace.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	lineRe := regexp.MustCompile(`^\d{14}  t\d{2}/c\d{2}  `)
	checked := 0
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "(") {
			continue // drop/displacement notes
		}
		if !lineRe.MatchString(line) {
			t.Fatalf("line not in sortable t/hw format: %q", line)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no event lines checked")
	}
	for _, e := range res.Trace.Events() {
		if e.HW < 0 {
			t.Fatalf("event lacks a hardware context: %+v", e)
		}
	}
}

func TestFreedEventsMatchStats(t *testing.T) {
	res := tracedRun(t, 1<<20)
	counts := res.Trace.Counts()
	// Frees recorded during the traced run (which spans warmup+measure+
	// drain) must be at least the measured-window count.
	if uint64(counts[sched.TraceFree]) < res.Core.Freed {
		t.Fatalf("trace saw %d frees, stats report %d in the window",
			counts[sched.TraceFree], res.Core.Freed)
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	r := trace.NewRecorder(0)
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("fresh recorder not empty")
	}
}

// emitSeq pushes n op-start events with Arg 0..n-1 at increasing vtimes.
func emitSeq(r *trace.Recorder, th *sched.Thread, n int) {
	for i := 0; i < n; i++ {
		th.Charge(10)
		r.TraceEvent(th, sched.TraceOpStart, uint64(i), 0)
	}
}

func newBareThread() *sched.Thread {
	m := mem.New(mem.Config{Words: 1 << 16})
	return sched.NewThread(0, m, alloc.New(m), 1)
}

// TestHeadModeKeepsFirstAndCountsRest: the default recorder stores the
// first N events and counts the overflow.
func TestHeadModeKeepsFirstAndCountsRest(t *testing.T) {
	r := trace.NewRecorder(4)
	emitSeq(r, newBareThread(), 10)
	if r.Ring() {
		t.Fatal("head-mode recorder claims to be a ring")
	}
	if r.Len() != 4 || r.Dropped() != 6 {
		t.Fatalf("len %d dropped %d, want 4 and 6", r.Len(), r.Dropped())
	}
	for i, e := range r.Events() {
		if e.Arg != uint64(i) {
			t.Fatalf("event %d has arg %d, want the first four", i, e.Arg)
		}
	}
}

// TestRingModeKeepsTail: the ring recorder stores the last N events in
// chronological order and counts the displaced ones.
func TestRingModeKeepsTail(t *testing.T) {
	r := trace.NewRingRecorder(4)
	emitSeq(r, newBareThread(), 10)
	if !r.Ring() {
		t.Fatal("ring recorder does not report ring mode")
	}
	if r.Len() != 4 || r.Dropped() != 6 {
		t.Fatalf("len %d dropped %d, want 4 and 6", r.Len(), r.Dropped())
	}
	evs := r.Events()
	for i, e := range evs {
		if e.Arg != uint64(6+i) {
			t.Fatalf("ring events %v, want args 6..9 in order", evs)
		}
		if i > 0 && evs[i].VTime < evs[i-1].VTime {
			t.Fatal("ring events out of chronological order")
		}
	}
}

// TestRingModeUnderCapacity: a ring that never fills behaves like the
// head-mode recorder.
func TestRingModeUnderCapacity(t *testing.T) {
	r := trace.NewRingRecorder(16)
	emitSeq(r, newBareThread(), 5)
	if r.Len() != 5 || r.Dropped() != 0 {
		t.Fatalf("len %d dropped %d, want 5 and 0", r.Len(), r.Dropped())
	}
	for i, e := range r.Events() {
		if e.Arg != uint64(i) {
			t.Fatal("under-capacity ring reordered events")
		}
	}
}

// TestRingDumpAnnouncesDisplacement: the ring dump leads with how much
// history was displaced, then shows the tail.
func TestRingDumpAnnouncesDisplacement(t *testing.T) {
	r := trace.NewRingRecorder(4)
	emitSeq(r, newBareThread(), 10)
	var sb strings.Builder
	if err := r.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "displaced") {
		t.Fatalf("ring dump missing displacement note:\n%s", out)
	}
	if !strings.HasPrefix(out, "(") {
		t.Fatalf("displacement note should lead the dump:\n%s", out)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	if f.n > 2 {
		return 0, errFail
	}
	return len(p), nil
}

var errFail = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "sink full" }

func TestDumpPropagatesWriterErrors(t *testing.T) {
	res := tracedRun(t, 50)
	if err := res.Trace.Dump(&failWriter{}); err == nil {
		t.Fatal("writer error swallowed")
	}
}
