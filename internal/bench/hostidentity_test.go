package bench

// Bit-identity guard for the host-path optimizations: every structure ×
// scheme × thread-count point must produce byte-identical simulated
// results on the optimized host paths and on the reference paths — the
// slow plain-access route of internal/mem (taken whenever an observer is
// installed) and the scheduler's per-decision runnable rescan. The
// optimized run's scheduler takes its policy-free keyed loop.

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"stacktrack/internal/cost"
	"stacktrack/internal/word"
)

// identitySchemes returns the scheme set the paper evaluates on a
// structure (DTA is list-only).
func identitySchemes(structure string) []string {
	s := []string{SchemeOriginal, SchemeHazards, SchemeEpoch, SchemeStackTrack}
	if structure == StructList {
		s = append(s, SchemeDTA)
	}
	return s
}

// simDigest is the part of a point the two paths must agree on bit for
// bit: everything simulated, nothing host-derived.
func simDigest(series string, threads int, res *Result) ([]byte, error) {
	return json.Marshal(struct {
		Series  string
		Threads int
		Ops     uint64
		Metrics any
	}{series, threads, res.Ops, res.Metrics})
}

// nopObserver watches nothing. Installing it routes every plain access
// of a Memory through the slow reference path without changing what is
// simulated.
type nopObserver struct{}

func (nopObserver) PlainRead(int, word.Addr)            {}
func (nopObserver) PlainWrite(int, word.Addr)           {}
func (nopObserver) SyncRMW(int, word.Addr, bool)        {}
func (nopObserver) TxBegin(int)                         {}
func (nopObserver) TxRead(int, word.Addr)               {}
func (nopObserver) TxWrite(int, word.Addr)              {}
func (nopObserver) TxCommit(int)                        {}
func (nopObserver) SyncHint(int, word.Addr, bool, bool) {}

// runReference runs cfg on the reference host paths: the slow plain
// memory route and the scheduler's full rescan.
func runReference(cfg Config) (*Result, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	s.in.m.SetObserver(nopObserver{})
	s.in.sc.SetLegacyScan(true)
	res, err := s.Finish()
	if err == nil {
		s.in.m.Release()
	}
	return res, err
}

func TestHostPathsBitIdentical(t *testing.T) {
	structures := []string{StructList, StructSkipList, StructQueue, StructHash, StructRBTree}
	for _, structure := range structures {
		for _, scheme := range identitySchemes(structure) {
			// 12 threads oversubscribe the 8-context machine (rotation).
			// Under Epoch a crashed thread leaves the others polling a
			// grace period that never ends (blocked waits).
			runs := []struct{ threads, crash int }{{2, 0}, {7, 0}, {12, 0}}
			if scheme == SchemeEpoch {
				runs = append(runs, struct{ threads, crash int }{12, 1})
			}
			for _, run := range runs {
				threads := run.threads
				cfg := Config{
					Structure:     structure,
					Scheme:        scheme,
					Threads:       threads,
					CrashThreads:  run.crash,
					Seed:          0x57ACC7AC4,
					InitialSize:   120,
					KeyRange:      240,
					Buckets:       64,
					QueuePrefill:  64,
					WarmupCycles:  cost.FromSeconds(0.0003),
					MeasureCycles: cost.FromSeconds(0.0015),
					MemWords:      1 << 20,
					Validate:      true,
				}
				name := fmt.Sprintf("%s/%s/%d/crash=%d", structure, scheme, threads, run.crash)
				opt, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s optimized: %v", name, err)
				}
				ref, err := runReference(cfg)
				if err != nil {
					t.Fatalf("%s reference: %v", name, err)
				}
				do, err := simDigest(scheme, threads, opt)
				if err != nil {
					t.Fatal(err)
				}
				dr, err := simDigest(scheme, threads, ref)
				if err != nil {
					t.Fatal(err)
				}
				if string(do) != string(dr) {
					t.Errorf("%s: optimized and reference host paths disagree\noptimized: %s\nreference: %s",
						name, do, dr)
				}
				if opt.FinalCount != ref.FinalCount || opt.LiveObjects != ref.LiveObjects {
					t.Errorf("%s: drain state differs: count %d vs %d, live %d vs %d",
						name, opt.FinalCount, ref.FinalCount,
						opt.LiveObjects, ref.LiveObjects)
				}
			}
		}
	}
}

// hostFlag reads mem.Memory's unexported fastPlain host-path flag.
func hostFlag(ptr any, field string) bool {
	return reflect.ValueOf(ptr).Elem().FieldByName(field).Bool()
}

// Values of sched.Scheduler's unexported loop field: the decision loop
// its last Run call took.
const (
	loopRescan = 0 // the legacy per-decision rescan
	loopKeyed  = 2 // the policy-free keyed loop
)

func hostLoop(sc any) uint64 {
	return reflect.ValueOf(sc).Elem().FieldByName("loop").Uint()
}

// TestHostPathSelection pins that the optimized paths are really on for
// a harness-built instance — it starts on the plain-memory fast path and
// its scheduler runs the keyed loop — and that
// runReference's instance really takes the reference paths, so the
// bit-identity sweep above compares two different routes.
func TestHostPathSelection(t *testing.T) {
	for _, ref := range []bool{false, true} {
		s, err := NewSession(smokeCfg(StructList, SchemeStackTrack, 4))
		if err != nil {
			t.Fatal(err)
		}
		if ref {
			s.in.m.SetObserver(nopObserver{})
			s.in.sc.SetLegacyScan(true)
		}
		if got := hostFlag(s.in.m, "fastPlain"); got == ref {
			t.Errorf("reference=%v: fresh instance on the plain fast path = %v", ref, got)
		}
		if _, err := s.Finish(); err != nil {
			t.Fatal(err)
		}
		want := uint64(loopKeyed)
		if ref {
			want = loopRescan
		}
		if got := hostLoop(s.in.sc); got != want {
			t.Errorf("reference=%v: scheduler took loop %d, want %d", ref, got, want)
		}
	}
}

// BenchmarkRunPoint measures one full simulated point end to end — the
// core interpreter hot path under a real workload.
func BenchmarkRunPoint(b *testing.B) {
	for _, scheme := range []string{SchemeOriginal, SchemeStackTrack} {
		b.Run(scheme, func(b *testing.B) {
			cfg := smokeCfg(StructList, scheme, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Decisions), "ns/block")
				}
			}
		})
	}
}
