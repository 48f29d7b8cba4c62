package core

// SCAN_AND_FREE (Algorithm 1): for every pointer in the free set, inspect
// the stack, registers, and — when the slow path is active anywhere — the
// reference set of every thread in the activity array. A pointer seen
// nowhere is freed; a pointer still referenced stays in the free set for a
// later scan.
//
// The scan runs in chunks of ScanChunkWords so the scheduler interleaves
// other threads between chunks; the split-counter / operation-counter retry
// protocol (Alg. 1 lines 14–29) therefore executes against genuinely
// concurrent segment commits, exactly as in the paper.

import (
	"stacktrack/internal/prog/dataflow"
	"stacktrack/internal/sched"
	"stacktrack/internal/word"
)

const (
	phasePickVictim = iota
	phaseStack
	phaseRegs
	phaseRefs
	phaseVerify
)

// scanner is a resumable SCAN_AND_FREE state machine: the per-pointer scan
// below (Algorithm 1 as written) or the hashed single-pass variant (§5.2).
type scanner interface {
	step(t *sched.Thread) bool
}

// scanState is the resumable state of one SCAN_AND_FREE invocation.
type scanState struct {
	st      *StackTrack
	ptrs    []word.Addr
	found   []bool
	victims []*sched.Thread

	slowActive bool

	pi, ti  int
	phase   int
	operPre uint64
	htmPre  uint64
	sp      int
	pos     int
	refsLen int
	hit     bool
	freed   uint64
	ended   bool

	// mask is the victim's current-operation track mask (nil: scan all);
	// fbase is the stack index of the operation's frame base.
	mask  *dataflow.TrackMask
	fbase int
}

// startScan returns the configured scan state machine over a snapshot of
// the thread's free set.
func (st *StackTrack) startScan(t *sched.Thread) scanner {
	if st.cfg.HashedScan {
		return st.startHashedScan(t)
	}
	return st.startPtrScan(t)
}

// startPtrScan prepares the per-pointer (Algorithm 1) scan, borrowing the
// thread's scratch buffers instead of allocating per scan.
func (st *StackTrack) startPtrScan(t *sched.Thread) *scanState {
	ts := st.state(t)
	n := len(ts.freeSet)
	found := ts.scanFound
	if cap(found) < n {
		found = make([]bool, n)
	}
	found = found[:n]
	for i := range found {
		found[i] = false
	}
	s := &scanState{
		st:         st,
		ptrs:       append(ts.scanPtrs[:0], ts.freeSet...),
		found:      found,
		victims:    st.sc.Threads(),
		slowActive: st.slowCount > 0,
	}
	ts.scanPtrs, ts.scanFound = nil, nil
	ts.freeSet = ts.freeSet[:0]
	st.c.scans.Inc(t.ID)
	t.Trace(sched.TraceScanStart, uint64(len(s.ptrs)), 0)
	return s
}

// matches reports whether scanned word w references object ptr: either
// directly (possibly with a mark bit) or through an interior pointer, which
// the allocator's range query canonicalizes (§5.5).
func (s *scanState) matches(w uint64, ptr word.Addr) bool {
	p := word.Ptr(w)
	if p == ptr {
		return true
	}
	if os, ok := s.st.al.ObjectStart(p); ok && os == ptr {
		return true
	}
	return false
}

// step advances the scan by one chunk. It returns true when the whole scan
// has completed (all pointers dispatched).
func (s *scanState) step(t *sched.Thread) bool {
	if s.pi >= len(s.ptrs) {
		s.end(t)
		return true
	}
	ptr := s.ptrs[s.pi]

	switch s.phase {
	case phasePickVictim:
		if s.ti >= len(s.victims) {
			s.finishPtr(t)
			if s.pi >= len(s.ptrs) {
				s.end(t)
				return true
			}
			return false
		}
		v := s.victims[s.ti]
		// Idle threads hold no operation-local references; skip them
		// (§6 "a scan does not always need to consider all threads").
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
		s.hit = false
		s.st.c.scanTargets.Inc(t.ID)
		s.phase = phaseStack

	case phaseStack:
		v := s.victims[s.ti]
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
			w := t.LoadPlain(v.StackBase + word.Addr(s.pos))
			loaded++
			s.st.c.scannedWords.Inc(t.ID)
			s.st.c.scannedDepth.Inc(t.ID)
			if s.matches(w, ptr) {
				s.hit = true
				break
			}
		}
		// Without a mask the seed behavior is preserved: a full chunk is
		// charged even when clamped. With one, only inspected words cost.
		if s.mask != nil {
			chargeWords(t, loaded)
		} else {
			chargeWords(t, s.st.cfg.ScanChunkWords)
		}
		if s.hit {
			s.markFound(t)
			return false
		}
		if s.pos >= s.sp {
			s.phase = phaseRegs
		}

	case phaseRegs:
		v := s.victims[s.ti]
		loaded := 0
		for i := 0; i < sched.NumRegs; i++ {
			if s.mask != nil && !maskTracksReg(s.mask, i) {
				s.st.c.elidedWords.Inc(t.ID)
				continue
			}
			w := t.LoadPlain(v.RegsBase + word.Addr(i))
			loaded++
			s.st.c.scannedWords.Inc(t.ID)
			if s.matches(w, ptr) {
				s.hit = true
				break
			}
		}
		if s.mask != nil {
			chargeWords(t, loaded)
		} else {
			chargeWords(t, sched.NumRegs)
		}
		if s.hit {
			s.markFound(t)
			return false
		}
		if s.slowActive {
			s.refsLen = int(t.LoadPlain(s.victims[s.ti].RefsLenAddr()))
			if s.refsLen > sched.RefsWords {
				s.refsLen = sched.RefsWords
			}
			s.pos = 0
			s.phase = phaseRefs
		} else {
			s.phase = phaseVerify
		}

	case phaseRefs:
		v := s.victims[s.ti]
		end := s.pos + s.st.cfg.ScanChunkWords
		if end > s.refsLen {
			end = s.refsLen
		}
		for ; s.pos < end; s.pos++ {
			w := t.LoadPlain(v.RefsBase + word.Addr(s.pos))
			s.st.c.scannedWords.Inc(t.ID)
			if s.matches(w, ptr) {
				s.hit = true
				break
			}
		}
		chargeWords(t, s.st.cfg.ScanChunkWords)
		if s.hit {
			s.markFound(t)
			return false
		}
		if s.pos >= s.refsLen {
			s.phase = phaseVerify
		}

	case phaseVerify:
		v := s.victims[s.ti]
		htmPost := t.LoadPlain(v.SplitsAddr())
		operPost := t.LoadPlain(v.OperCntAddr())
		if s.operPre == operPost && s.htmPre != htmPost {
			// The victim committed a segment while we were looking:
			// its stack may have changed under us — restart the
			// inspection of this thread (Alg. 1 line 27).
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
			s.hit = false
			s.phase = phaseStack
			return false
		}
		s.ti++
		s.phase = phasePickVictim
	}
	return false
}

// markFound records that ptr is still referenced somewhere: one live
// reference is enough to defer the free, so the pointer returns to the free
// set for a later scan and the scan advances to the next pointer.
func (s *scanState) markFound(t *sched.Thread) {
	s.found[s.pi] = true
	ts := s.st.state(t)
	s.st.c.falseHeld.Inc(t.ID)
	ts.freeSet = append(ts.freeSet, s.ptrs[s.pi])
	s.advance()
}

// finishPtr completes the current pointer after every victim was inspected
// without a hit: the object is provably unreferenced and is freed.
func (s *scanState) finishPtr(t *sched.Thread) {
	t.FreeNow(s.ptrs[s.pi])
	s.st.c.freed.Inc(t.ID)
	s.freed++
	s.advance()
}

// end emits the scan-completion event exactly once and returns the
// borrowed scratch buffers to the thread's state.
func (s *scanState) end(t *sched.Thread) {
	if !s.ended {
		s.ended = true
		t.Trace(sched.TraceScanEnd, s.freed, 0)
		ts := s.st.state(t)
		ts.scanPtrs, ts.scanFound = s.ptrs[:0], s.found[:0]
	}
}

func (s *scanState) advance() {
	s.pi++
	s.ti = 0
	s.phase = phasePickVictim
}

// scanAndFreeSync runs a complete scan without yielding — used by Drain at
// teardown, when interleaving no longer matters.
func (st *StackTrack) scanAndFreeSync(t *sched.Thread) {
	s := st.startScan(t)
	for !s.step(t) {
	}
}
