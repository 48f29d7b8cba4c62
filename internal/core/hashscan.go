package core

// The free-procedure optimization of §5.2: instead of rescanning every
// thread's stack once per pointer in the free set (O(ptrs × stacks)), scan
// each thread once, hashing every reference it exposes, then test each
// free-set pointer against the hash set (O(stacks + ptrs)).
//
// The scan-consistency protocol is unchanged: a victim that commits a
// segment mid-inspection is re-inspected. Entries hashed from a torn
// inspection are kept — a stale entry can only defer a free, never allow
// an unsafe one.
//
// The paper found this optimization did not pay off at its scan rates
// (the cost is amortized over MaxFree frees); the ablation-scan experiment
// reproduces exactly that comparison.

import (
	"stacktrack/internal/prog/dataflow"
	"stacktrack/internal/sched"
	"stacktrack/internal/word"
)

// hashedScanState is the resumable state of one hashed SCAN_AND_FREE.
type hashedScanState struct {
	st      *StackTrack
	ptrs    []word.Addr
	victims []*sched.Thread

	slowActive bool

	ti      int
	phase   int
	operPre uint64
	htmPre  uint64
	sp      int
	pos     int
	refsLen int

	// held collects the canonicalized object starts referenced anywhere.
	held map[word.Addr]struct{}

	// mask is the victim's current-operation track mask (nil: scan all);
	// fbase is the stack index of the operation's frame base.
	mask  *dataflow.TrackMask
	fbase int

	ended bool
}

// startHashedScan snapshots the free set and prepares the state machine,
// borrowing the thread's scratch buffers instead of allocating per scan.
func (st *StackTrack) startHashedScan(t *sched.Thread) *hashedScanState {
	ts := st.state(t)
	held := ts.scanHeld
	if held == nil {
		held = make(map[word.Addr]struct{}, 64)
	}
	clear(held)
	s := &hashedScanState{
		st:         st,
		ptrs:       append(ts.scanPtrs[:0], ts.freeSet...),
		victims:    st.sc.Threads(),
		slowActive: st.slowCount > 0,
		held:       held,
	}
	ts.scanPtrs, ts.scanHeld = nil, nil
	ts.freeSet = ts.freeSet[:0]
	st.c.scans.Inc(t.ID)
	t.Trace(sched.TraceScanStart, uint64(len(s.ptrs)), 0)
	return s
}

// note canonicalizes one scanned word into the held set.
func (s *hashedScanState) note(w uint64) {
	p := word.Ptr(w)
	if os, ok := s.st.al.ObjectStart(p); ok {
		s.held[os] = struct{}{}
	}
}

// step advances the scan by one chunk; true when complete.
func (s *hashedScanState) step(t *sched.Thread) bool {
	if s.ti >= len(s.victims) {
		if !s.ended {
			s.ended = true
			s.finish(t)
		}
		return true
	}
	v := s.victims[s.ti]

	switch s.phase {
	case phasePickVictim:
		act := t.LoadPlain(v.ActivityAddr())
		if v.Done() || act == 0 {
			s.ti++
			return false
		}
		s.operPre = t.LoadPlain(v.OperCntAddr())
		s.htmPre = t.LoadPlain(v.SplitsAddr())
		s.sp = int(t.LoadPlain(v.SPAddr()))
		if s.sp > sched.StackWords {
			s.sp = sched.StackWords
		}
		s.mask, s.fbase = s.st.victimMask(act, s.sp)
		s.pos = 0
		s.st.c.scanTargets.Inc(t.ID)
		s.phase = phaseStack

	case phaseStack:
		end := s.pos + s.st.cfg.ScanChunkWords
		if end > s.sp {
			end = s.sp
		}
		loaded := 0
		for ; s.pos < end; s.pos++ {
			if s.mask != nil && !maskTracksStack(s.mask, s.fbase, s.pos) {
				s.st.c.elidedWords.Inc(t.ID)
				continue
			}
			s.note(t.LoadPlain(v.StackBase + word.Addr(s.pos)))
			loaded++
			s.st.c.scannedWords.Inc(t.ID)
			s.st.c.scannedDepth.Inc(t.ID)
		}
		if s.mask != nil {
			chargeWords(t, loaded)
		} else {
			chargeWords(t, s.st.cfg.ScanChunkWords)
		}
		if s.pos >= s.sp {
			s.phase = phaseRegs
		}

	case phaseRegs:
		loaded := 0
		for i := 0; i < sched.NumRegs; i++ {
			if s.mask != nil && !maskTracksReg(s.mask, i) {
				s.st.c.elidedWords.Inc(t.ID)
				continue
			}
			s.note(t.LoadPlain(v.RegsBase + word.Addr(i)))
			loaded++
			s.st.c.scannedWords.Inc(t.ID)
		}
		if s.mask != nil {
			chargeWords(t, loaded)
		} else {
			chargeWords(t, sched.NumRegs)
		}
		if s.slowActive {
			s.refsLen = int(t.LoadPlain(v.RefsLenAddr()))
			if s.refsLen > sched.RefsWords {
				s.refsLen = sched.RefsWords
			}
			s.pos = 0
			s.phase = phaseRefs
		} else {
			s.phase = phaseVerify
		}

	case phaseRefs:
		end := s.pos + s.st.cfg.ScanChunkWords
		if end > s.refsLen {
			end = s.refsLen
		}
		for ; s.pos < end; s.pos++ {
			s.note(t.LoadPlain(v.RefsBase + word.Addr(s.pos)))
			s.st.c.scannedWords.Inc(t.ID)
		}
		chargeWords(t, s.st.cfg.ScanChunkWords)
		if s.pos >= s.refsLen {
			s.phase = phaseVerify
		}

	case phaseVerify:
		htmPost := t.LoadPlain(v.SplitsAddr())
		operPost := t.LoadPlain(v.OperCntAddr())
		if s.operPre == operPost && s.htmPre != htmPost {
			// Re-inspect; entries already hashed stay (conservative).
			s.st.c.scanRestarts.Inc(t.ID)
			s.htmPre = t.LoadPlain(v.SplitsAddr())
			s.sp = int(t.LoadPlain(v.SPAddr()))
			if s.sp > sched.StackWords {
				s.sp = sched.StackWords
			}
			// Same operation invocation (operPre == operPost), but the
			// frame geometry may have changed with sp.
			s.mask, s.fbase = s.st.victimMask(t.LoadPlain(v.ActivityAddr()), s.sp)
			s.pos = 0
			s.phase = phaseStack
			return false
		}
		s.ti++
		s.phase = phasePickVictim
	}
	return false
}

// finish frees every pointer not present in the hash set.
func (s *hashedScanState) finish(t *sched.Thread) {
	ts := s.st.state(t)
	var freed uint64
	for _, p := range s.ptrs {
		if _, live := s.held[p]; live {
			s.st.c.falseHeld.Inc(t.ID)
			ts.freeSet = append(ts.freeSet, p)
			continue
		}
		t.FreeNow(p)
		s.st.c.freed.Inc(t.ID)
		freed++
	}
	t.Trace(sched.TraceScanEnd, freed, 0)
	ts.scanPtrs, ts.scanHeld = s.ptrs[:0], s.held
}
