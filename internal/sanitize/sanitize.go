// Package sanitize is the simulator's dynamic-analysis layer: a
// happens-before data-race detector (vector clocks with the FastTrack
// epoch fast path) plus a shadow-memory allocation sanitizer (per-word
// valid/freed/redzone state with alloc/free/use provenance), both fed by
// the per-access observer hooks in internal/mem and internal/alloc and by
// the scheduler's hand-off and crash events on the lifecycle seam
// (sched.Tracer).
//
// The sanitizer is strictly read-only with respect to the simulation: it
// charges no virtual cycles, allocates no simulated memory, and makes no
// decisions the simulated program can observe. Enabling it changes no
// simulated result — the bench layer enforces this with a bit-identical
// JSON export test.
//
// # Happens-before model
//
// The simulated machine is sequentially consistent (one scheduler, one
// access at a time), so "unordered" cannot mean real-time overlap.
// Instead the detector asks the FastTrack question against the
// *synchronization* order the program established:
//
//   - a plain store releases the accessed word (the word's release clock
//     absorbs the writer's vector clock) — publication via plain store
//     is how the simulated algorithms hand data over;
//   - a plain load acquires the word's release clock;
//   - CAS and fetch-and-add acquire, and release when they write;
//   - a transactional commit acquires every word the transaction read
//     and releases every word it wrote, at the commit point — the
//     transaction is one indivisible synchronization action;
//   - a context-switch hand-off orders the outgoing thread before the
//     incoming one on the same hardware context;
//   - free-to-realloc of the same slot orders the freeing thread before
//     the next owner.
//
// Because stores release and loads acquire, a read after a write to the
// same word is always ordered; the reportable residue is write/write and
// write-after-read conflicts, both detected at the later plain store.
// That is exactly the shape of a reclamation bug: the free's poison
// store racing a reader that some scan, epoch, or hazard protocol failed
// to order with the free. Synchronizing RMWs (CAS, fetch-and-add) are
// never *reported* as racing — they are the synchronization — but their
// accesses still update epochs so later plain stores see them.
//
// # Shadow memory
//
// Every heap word carries an allocation state: valid, redzone (the slack
// between an object's requested size and its size class — a logical
// redzone, so object layout and simulated results are unchanged), freed
// (from free until the allocator reuses the slot — the quarantine
// window), or never-allocated. Accesses to anything but valid words are
// reported at the access, with the containing object's alloc and free
// sites. The quarantine cannot delay slot reuse (allocator behaviour is
// simulated state), so a stale access after reuse is no longer a shadow
// violation — but it is still unordered with the new owner and surfaces
// through the race detector instead.
package sanitize

import (
	"stacktrack/internal/alloc"
	"stacktrack/internal/cost"
	"stacktrack/internal/sched"
	"stacktrack/internal/word"
)

const (
	pageShift = 12
	pageWords = 1 << pageShift
)

// Per-word shadow allocation states.
const (
	stNever   uint8 = iota // never allocated since page claim (wild)
	stValid                // inside a live object's requested words
	stRedzone              // slack words between requested and class size
	stFreed                // freed; quarantined until the slot is reused
	stFreeing              // the free's own poison stores are in flight
)

// accessRec is a recorded access epoch plus enough site context to
// report it later without holding a Site (40 bytes vs. interning).
type accessRec struct {
	tid   int16
	block int16
	clock uint32
	vtime cost.Cycles
	op    string
}

func (r accessRec) site() Site {
	return Site{TID: int(r.tid), Op: r.op, Block: int(r.block), VTime: r.vtime, Clock: r.clock}
}

// readSet is the FastTrack shared-read state: per-thread last-read
// clocks plus the matching sites, entered when two unordered threads
// read the same word between writes.
type readSet struct {
	vc    vclock
	sites []accessRec
}

// shadowPage shadows pageWords consecutive simulated words. state is
// always present; the epoch and release-clock tables are lazily built
// the first time the page sees race-relevant traffic.
type shadowPage struct {
	state  [pageWords]uint8
	wr     []accessRec      // last-write epochs, tid == -1 when empty
	rd     []accessRec      // single-reader epochs (FastTrack fast path)
	rel    []vclock         // per-word release clocks, nil until released
	shared map[int]*readSet // promoted read sets by in-page word index
}

func (pg *shadowPage) ensureEpochs() {
	if pg.wr != nil {
		return
	}
	pg.wr = make([]accessRec, pageWords)
	pg.rd = make([]accessRec, pageWords)
	for i := range pg.wr {
		pg.wr[i].tid = -1
		pg.rd[i].tid = -1
	}
}

// objMeta is an object's provenance while its slot stays in the shadow.
type objMeta struct {
	alloc Site
	free  Site
	freed bool
}

type siteKey struct {
	op    string
	block int
}

type raceKey struct {
	kind   string
	access siteKey
	prior  siteKey
}

type accKey struct {
	state string
	use   siteKey
}

// Sanitizer implements mem.Observer, alloc.Observer, and sched.Tracer.
// It is pure host-side analysis state; none of it is snapshotted.
type Sanitizer struct {
	n       int
	threads []*sched.Thread
	al      *alloc.Allocator

	vcs     []vclock
	crashed []bool

	pages  map[uint64]*shadowPage
	meta   map[word.Addr]*objMeta
	slotVC map[word.Addr]vclock // freed-slot release clocks, by base

	pendR [][]word.Addr // per-thread transactional read sets
	pendW [][]word.Addr

	racesOff bool

	sum      Summary
	raceSeen map[raceKey]struct{}
	accSeen  map[accKey]struct{}
}

// New creates a sanitizer for a simulation with n threads. Wire it with
// SetObserver on the memory and allocator, install it as every thread's
// Tracer, then Attach.
func New(n int) *Sanitizer {
	if n < 1 {
		n = 1
	}
	s := &Sanitizer{
		n:        n,
		vcs:      make([]vclock, n),
		crashed:  make([]bool, n),
		pages:    make(map[uint64]*shadowPage),
		meta:     make(map[word.Addr]*objMeta),
		slotVC:   make(map[word.Addr]vclock),
		pendR:    make([][]word.Addr, n),
		pendW:    make([][]word.Addr, n),
		raceSeen: make(map[raceKey]struct{}),
		accSeen:  make(map[accKey]struct{}),
	}
	for i := range s.vcs {
		s.vcs[i] = newVC(n, i)
	}
	return s
}

// Attach supplies the thread contexts (for access-site attribution) and
// the allocator (for the heap extent and slot geometry). Call once the
// threads exist, before the heap sees traffic.
func (s *Sanitizer) Attach(threads []*sched.Thread, al *alloc.Allocator) {
	s.threads = threads
	s.al = al
}

// EndRun disables race detection (the harness calls it before the
// post-measurement drain, whose host-forced frees have no happens-before
// story). Shadow-memory checking stays on.
func (s *Sanitizer) EndRun() { s.racesOff = true }

// Summary returns the accumulated report bundle.
func (s *Sanitizer) Summary() *Summary { return &s.sum }

// ResetFromAlloc rebuilds the shadow from the attached allocator's
// current page tables, for use after a snapshot restore: allocated slots
// become fully valid (requested sizes are not snapshotted, so restored
// objects carry no redzones), free slots become freed without
// provenance, and all race-detector and report state is cleared.
func (s *Sanitizer) ResetFromAlloc() {
	s.pages = make(map[uint64]*shadowPage)
	s.meta = make(map[word.Addr]*objMeta)
	s.slotVC = make(map[word.Addr]vclock)
	s.sum = Summary{}
	s.raceSeen = make(map[raceKey]struct{})
	s.accSeen = make(map[accKey]struct{})
	s.racesOff = false
	for i := range s.vcs {
		s.vcs[i] = newVC(s.n, i)
		s.crashed[i] = i < len(s.threads) && s.threads[i] != nil && s.threads[i].Crashed()
		s.pendR[i] = s.pendR[i][:0]
		s.pendW[i] = s.pendW[i][:0]
	}
	if s.al == nil {
		return
	}
	s.al.ForEachSlot(func(base word.Addr, size int, allocated bool) {
		if allocated {
			s.setRange(base, size, stValid)
		} else {
			s.setRange(base, size, stFreed)
		}
	})
}

// --- Internal helpers -------------------------------------------------------

func (s *Sanitizer) valid(tid int) bool { return tid >= 0 && tid < s.n }

func (s *Sanitizer) heapWord(a word.Addr) bool {
	if s.al == nil {
		return false
	}
	lo, hi := s.al.HeapRange()
	return a >= lo && a < hi
}

func (s *Sanitizer) page(a word.Addr) (*shadowPage, int) {
	pn := uint64(a) >> pageShift
	pg := s.pages[pn]
	if pg == nil {
		pg = &shadowPage{}
		s.pages[pn] = pg
	}
	return pg, int(uint64(a) & (pageWords - 1))
}

func (s *Sanitizer) setRange(base word.Addr, n int, st uint8) {
	for i := 0; i < n; i++ {
		pg, idx := s.page(base + word.Addr(i))
		pg.state[idx] = st
	}
}

// site captures thread tid's current position for a report.
func (s *Sanitizer) site(tid int) Site {
	st := Site{TID: tid, Block: -1}
	if tid >= 0 && tid < len(s.threads) && s.threads[tid] != nil {
		t := s.threads[tid]
		st.Op, st.Block, st.VTime = t.CurOp, t.CurBlock, t.VTime()
	}
	if s.valid(tid) {
		st.Clock = s.vcs[tid][tid]
	}
	return st
}

// rec is site as a compact epoch record.
func (s *Sanitizer) rec(tid int) accessRec {
	r := accessRec{tid: int16(tid), block: -1, clock: s.vcs[tid][tid]}
	if tid >= 0 && tid < len(s.threads) && s.threads[tid] != nil {
		t := s.threads[tid]
		r.op = t.CurOp
		r.block = int16(t.CurBlock)
		r.vtime = t.VTime()
	}
	return r
}

// acquire joins the word's release clock into tid's clock.
func (s *Sanitizer) acquire(tid int, pg *shadowPage, i int) {
	if pg.rel == nil {
		return
	}
	if rv := pg.rel[i]; rv != nil {
		s.vcs[tid].join(rv)
	}
}

// releaseAt folds tid's clock into the word's release clock without
// advancing tid's epoch (the caller bumps once per release action).
func (s *Sanitizer) releaseAt(tid int, pg *shadowPage, i int) {
	if pg.rel == nil {
		pg.rel = make([]vclock, pageWords)
	}
	rv := pg.rel[i]
	if rv == nil {
		rv = make(vclock, s.n)
		pg.rel[i] = rv
	}
	rv.join(s.vcs[tid])
}

func (s *Sanitizer) bump(tid int) { s.vcs[tid][tid]++ }

// recordRead notes tid's read epoch on a heap word (FastTrack read
// handling: single-epoch fast path, promotion to a read set on
// concurrent readers).
func (s *Sanitizer) recordRead(tid int, pg *shadowPage, i int) {
	pg.ensureEpochs()
	rec := s.rec(tid)
	if rs := pg.shared[i]; rs != nil {
		rs.vc[tid] = rec.clock
		rs.sites[tid] = rec
		return
	}
	cur := pg.rd[i]
	if cur.tid < 0 || int(cur.tid) == tid || cur.clock <= s.vcs[tid][cur.tid] {
		pg.rd[i] = rec // empty, same thread, or ordered: stay on the fast path
		return
	}
	rs := &readSet{vc: make(vclock, s.n), sites: make([]accessRec, s.n)}
	rs.vc[cur.tid] = cur.clock
	rs.sites[cur.tid] = cur
	rs.vc[tid] = rec.clock
	rs.sites[tid] = rec
	if pg.shared == nil {
		pg.shared = make(map[int]*readSet)
	}
	pg.shared[i] = rs
	pg.rd[i] = accessRec{tid: -1}
}

// recordWrite installs tid's write epoch and resets the read state (a
// write is a new "era" for the word; earlier reads were checked).
func (s *Sanitizer) recordWrite(tid int, pg *shadowPage, i int) {
	pg.ensureEpochs()
	pg.wr[i] = s.rec(tid)
	pg.rd[i] = accessRec{tid: -1}
	if pg.shared != nil {
		delete(pg.shared, i)
	}
}

// raceCheck looks for epochs concurrent with a plain store by tid.
func (s *Sanitizer) raceCheck(tid int, a word.Addr, pg *shadowPage, i int) {
	if pg.wr == nil {
		return
	}
	vc := s.vcs[tid]
	if w := pg.wr[i]; w.tid >= 0 && int(w.tid) != tid && w.clock > vc[w.tid] && !s.crashed[w.tid] {
		s.reportRace(a, "write-write", tid, w)
	}
	if r := pg.rd[i]; r.tid >= 0 && int(r.tid) != tid && r.clock > vc[r.tid] && !s.crashed[r.tid] {
		s.reportRace(a, "write-after-read", tid, r)
	}
	if rs := pg.shared[i]; rs != nil {
		for t2 := 0; t2 < s.n; t2++ {
			if t2 == tid || s.crashed[t2] {
				continue
			}
			if rs.vc[t2] > vc[t2] {
				s.reportRace(a, "write-after-read", tid, rs.sites[t2])
				break
			}
		}
	}
}

func (s *Sanitizer) reportRace(a word.Addr, kind string, tid int, prior accessRec) {
	s.sum.DataRaces++
	acc := s.site(tid)
	key := raceKey{kind, siteKey{acc.Op, acc.Block}, siteKey{prior.op, int(prior.block)}}
	if _, dup := s.raceSeen[key]; dup {
		return
	}
	s.raceSeen[key] = struct{}{}
	if len(s.sum.Races) < ReportCap {
		s.sum.Races = append(s.sum.Races, RaceReport{Addr: a, Kind: kind, Access: acc, Prior: prior.site()})
	}
}

// shadowCheck validates a heap access against the word's allocation
// state and reports violations with provenance.
func (s *Sanitizer) shadowCheck(tid int, a word.Addr, pg *shadowPage, i int, write bool) {
	var state string
	switch pg.state[i] {
	case stValid, stFreeing:
		return
	case stRedzone:
		state = "redzone"
		s.sum.Redzone++
	case stFreed:
		state = "freed"
		s.sum.UAFAccesses++
	default:
		state = "wild"
		s.sum.Wild++
	}
	use := s.site(tid)
	key := accKey{state, siteKey{use.Op, use.Block}}
	if _, dup := s.accSeen[key]; dup {
		return
	}
	s.accSeen[key] = struct{}{}
	if len(s.sum.Accesses) >= ReportCap {
		return
	}
	rep := AccessReport{Addr: a, State: state, Write: write, Use: use}
	if base, _, _, ok := s.al.SlotRange(a); ok {
		rep.Object = base
		if m := s.meta[base]; m != nil {
			al := m.alloc
			rep.Alloc = &al
			if m.freed {
				fr := m.free
				rep.Free = &fr
			}
		}
	}
	s.sum.Accesses = append(s.sum.Accesses, rep)
}

// --- mem.Observer -----------------------------------------------------------

// PlainRead implements mem.Observer.
func (s *Sanitizer) PlainRead(tid int, a word.Addr) {
	if !s.valid(tid) {
		return
	}
	pg, i := s.page(a)
	heap := s.heapWord(a)
	if heap {
		s.shadowCheck(tid, a, pg, i, false)
	}
	if s.racesOff {
		return
	}
	s.acquire(tid, pg, i)
	if heap {
		s.recordRead(tid, pg, i)
	}
}

// PlainWrite implements mem.Observer.
func (s *Sanitizer) PlainWrite(tid int, a word.Addr) {
	if !s.valid(tid) {
		return
	}
	pg, i := s.page(a)
	heap := s.heapWord(a)
	if heap {
		s.shadowCheck(tid, a, pg, i, true)
	}
	if s.racesOff {
		return
	}
	if heap {
		s.raceCheck(tid, a, pg, i)
		s.recordWrite(tid, pg, i)
	}
	s.releaseAt(tid, pg, i)
	s.bump(tid)
}

// SyncRMW implements mem.Observer. RMWs synchronize: they acquire, and
// release when they write. They update epochs but are never reported as
// the racing access themselves.
func (s *Sanitizer) SyncRMW(tid int, a word.Addr, wrote bool) {
	if !s.valid(tid) {
		return
	}
	pg, i := s.page(a)
	heap := s.heapWord(a)
	if heap {
		s.shadowCheck(tid, a, pg, i, wrote)
	}
	if s.racesOff {
		return
	}
	s.acquire(tid, pg, i)
	if heap {
		if wrote {
			s.recordWrite(tid, pg, i)
		} else {
			s.recordRead(tid, pg, i)
		}
	}
	if wrote {
		s.releaseAt(tid, pg, i)
		s.bump(tid)
	}
}

// TxBegin implements mem.Observer.
func (s *Sanitizer) TxBegin(tid int) {
	if !s.valid(tid) {
		return
	}
	s.pendR[tid] = s.pendR[tid][:0]
	s.pendW[tid] = s.pendW[tid][:0]
}

// TxRead implements mem.Observer. The shadow check happens at the
// access (a transactional use-after-free is a use-after-free even if
// the transaction later aborts); the happens-before effect is deferred
// to commit, since an aborted transaction synchronizes nothing.
func (s *Sanitizer) TxRead(tid int, a word.Addr) {
	if !s.valid(tid) {
		return
	}
	if s.heapWord(a) {
		pg, i := s.page(a)
		s.shadowCheck(tid, a, pg, i, false)
	}
	if !s.racesOff {
		s.pendR[tid] = append(s.pendR[tid], a)
	}
}

// TxWrite implements mem.Observer.
func (s *Sanitizer) TxWrite(tid int, a word.Addr) {
	if !s.valid(tid) {
		return
	}
	if s.heapWord(a) {
		pg, i := s.page(a)
		s.shadowCheck(tid, a, pg, i, true)
	}
	if !s.racesOff {
		s.pendW[tid] = append(s.pendW[tid], a)
	}
}

// TxCommit implements mem.Observer: the whole transaction becomes one
// synchronization action at the commit point — acquire everything read,
// release everything written, stamped with a single commit epoch.
// Committed writes are transactional, hence synchronizing, hence exempt
// from race reporting just like RMWs.
func (s *Sanitizer) TxCommit(tid int) {
	if !s.valid(tid) || s.racesOff {
		return
	}
	for _, a := range s.pendR[tid] {
		pg, i := s.page(a)
		s.acquire(tid, pg, i)
		if s.heapWord(a) {
			s.recordRead(tid, pg, i)
		}
	}
	for _, a := range s.pendW[tid] {
		pg, i := s.page(a)
		if s.heapWord(a) {
			s.recordWrite(tid, pg, i)
		}
		s.releaseAt(tid, pg, i)
	}
	s.bump(tid)
	s.pendR[tid] = s.pendR[tid][:0]
	s.pendW[tid] = s.pendW[tid][:0]
}

// SyncHint implements mem.Observer: a host-modelled synchronization
// action (see mem.NoteSync) acquires and/or releases like the RMW it
// stands in for, without recording an access epoch — the instruction it
// models touches scheme metadata, not the word itself.
func (s *Sanitizer) SyncHint(tid int, a word.Addr, acquire, release bool) {
	if !s.valid(tid) || s.racesOff {
		return
	}
	pg, i := s.page(a)
	if acquire {
		s.acquire(tid, pg, i)
	}
	if release {
		s.releaseAt(tid, pg, i)
		s.bump(tid)
	}
}

// --- alloc.Observer ---------------------------------------------------------

// ObjectAlloc implements alloc.Observer: mark requested words valid and
// class slack as redzone, record provenance, and acquire the freeing
// thread's clock so reuse is ordered after the free that recycled the
// slot.
func (s *Sanitizer) ObjectAlloc(tid int, p word.Addr, requested, size int) {
	if sv := s.slotVC[p]; sv != nil {
		if s.valid(tid) && !s.racesOff {
			s.vcs[tid].join(sv)
		}
		delete(s.slotVC, p)
	}
	s.setRange(p, requested, stValid)
	s.setRange(p+word.Addr(requested), size-requested, stRedzone)
	s.meta[p] = &objMeta{alloc: s.site(tid)}
}

// ObjectFreeBegin implements alloc.Observer: the free's own poison
// stores are about to hit every word of the object; the transient
// freeing state keeps them from self-reporting as use-after-free.
func (s *Sanitizer) ObjectFreeBegin(tid int, p word.Addr, size int) {
	s.setRange(p, size, stFreeing)
	m := s.meta[p]
	if m == nil {
		m = &objMeta{}
		s.meta[p] = m
	}
	m.free = s.site(tid)
	m.freed = true
}

// ObjectFreeEnd implements alloc.Observer: quarantine the slot and
// publish the freeing thread's clock for the eventual reuser.
func (s *Sanitizer) ObjectFreeEnd(tid int, p word.Addr, size int) {
	s.setRange(p, size, stFreed)
	if s.valid(tid) && !s.racesOff {
		s.slotVC[p] = s.vcs[tid].clone()
	}
}

// ObjectUnalloc implements alloc.Observer: a rolled-back transactional
// allocation never existed; the slot returns to never-allocated.
func (s *Sanitizer) ObjectUnalloc(p word.Addr, size int) {
	s.setRange(p, size, stNever)
	delete(s.meta, p)
}

// --- sched.Tracer -----------------------------------------------------------

// TraceEvent implements sched.Tracer. Two lifecycle events are
// synchronization: a hand-off orders the outgoing thread t before the
// incoming one (arg; sched.NoThread when the context empties), and a
// crash takes t's epochs out of race reports — nothing will ever
// synchronize with it again, so every later access would otherwise "race"
// with its last writes, drowning the real finding (the schemes' handling
// of the crash is what the crash oracles check). Other kinds are ignored.
func (s *Sanitizer) TraceEvent(t *sched.Thread, k sched.TraceKind, arg uint64, _ cost.Cycles) {
	switch k {
	case sched.TraceHandoff:
		out, in := t.ID, int(arg)
		if s.racesOff || !s.valid(out) || !s.valid(in) {
			return
		}
		s.vcs[in].join(s.vcs[out])
		s.bump(out)
	case sched.TraceCrash:
		if s.valid(t.ID) {
			s.crashed[t.ID] = true
		}
	}
}
