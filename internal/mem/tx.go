package mem

import (
	"fmt"
	"math/bits"

	"stacktrack/internal/word"
)

// wbMaxWords caps the write buffer at 8192 distinct words. A TxWrite made
// while that many words are buffered raises a Capacity abort, even when it
// overwrites a word already in the buffer. The L1 line budget usually binds
// first (512 lines × 8 words = 4096 words on the default topology), but a
// topology with a larger L1Lines reaches this cap instead.
const wbMaxWords = 1 << 13

// wbLine is one written cache line in the write buffer: the line number,
// the speculative value of each of its words, and a mask of the words that
// hold one.
type wbLine struct {
	line  uint64
	valid uint8 // bit k set iff vals[k] is buffered
	vals  [word.LineWords]uint64
}

// writeBuf is the transaction's speculative store buffer, one entry per
// line the transaction has written. While the transaction is TxActive,
// every buffered word lies on a line it owns: TxWrite acquires the line
// before buffering, and ownership is dropped only by releaseLines, which
// runs exactly when the transaction leaves TxActive. The owner's
// lineWriter word carries the line's entry index, so an access finds its
// entry with the load that checks ownership, and only reads of owned lines
// look here at all.
type writeBuf struct {
	lines []wbLine // first write first
	// order lists the distinct buffered words, oldest first, each as its
	// entry index << LineShift | word within the line.
	order []uint32
}

func (b *writeBuf) reset() {
	b.lines = b.lines[:0]
	b.order = b.order[:0]
}

// get returns the buffered value of a, whose line is entry i, if any.
func (b *writeBuf) get(i int, a word.Addr) (uint64, bool) {
	e := &b.lines[i]
	k := uint(a) & (word.LineWords - 1)
	return e.vals[k], e.valid&(1<<k) != 0
}

// put records a speculative store to a, which lies on line l: entry i,
// or a new entry when i == len(b.lines). It reports false once the buffer
// holds wbMaxWords words (treated as a capacity overflow by the caller).
func (b *writeBuf) put(i int, l uint64, a word.Addr, v uint64) bool {
	if len(b.order) >= wbMaxWords {
		return false
	}
	if i == len(b.lines) {
		b.lines = append(b.lines, wbLine{line: l})
	}
	e := &b.lines[i]
	k := uint(a) & (word.LineWords - 1)
	if e.valid&(1<<k) == 0 {
		e.valid |= 1 << k
		b.order = append(b.order, uint32(i)<<word.LineShift|uint32(k))
	}
	e.vals[k] = v
	return true
}

// write returns the n-th distinct buffered word, oldest first.
func (b *writeBuf) write(n int) TxWriteState {
	o := b.order[n]
	e := &b.lines[o>>word.LineShift]
	k := o & (word.LineWords - 1)
	return TxWriteState{Addr: word.Addr(e.line<<word.LineShift | uint64(k)), Val: e.vals[k]}
}

// Tx is a hardware-transaction descriptor. A thread owns at most one at a
// time. Descriptors are reused across transactions to stay allocation-free
// on the hot path.
type Tx struct {
	tid    int
	state  TxState
	reason AbortReason

	readLines  []uint64
	writeLines []uint64
	buf        writeBuf
}

// Tid returns the owning thread id.
func (tx *Tx) Tid() int { return tx.tid }

// Active reports whether the transaction is running and not doomed.
func (tx *Tx) Active() bool { return tx.state == TxActive }

// Doomed reports whether the transaction has been condemned, and by what.
func (tx *Tx) Doomed() (bool, AbortReason) { return tx.state == TxDoomed, tx.reason }

// Footprint returns the number of distinct cache lines in the data set.
func (tx *Tx) Footprint() int { return len(tx.readLines) + len(tx.writeLines) }

// Begin starts a hardware transaction for thread tid. It panics if the
// thread already has an active transaction (a simulation bug, not a
// recoverable condition).
func (m *Memory) Begin(tid int) *Tx {
	if old := m.txs[tid]; old != nil && old.state == TxActive {
		panic(fmt.Sprintf("mem: thread %d nested Begin", tid))
	}
	tx := m.txs[tid]
	if tx == nil {
		tx = &Tx{
			tid:        tid,
			readLines:  make([]uint64, 0, 512),
			writeLines: make([]uint64, 0, 128),
		}
		m.txs[tid] = tx
	}
	tx.state = TxActive
	tx.reason = NoAbort
	tx.buf.reset()
	m.liveTx++
	m.refreshFast()
	m.c.txBegins.Inc(tid)
	if m.obs != nil {
		m.obs.TxBegin(tid)
	}
	return tx
}

// writeCap returns the write-set line budget for thread tid, halved under
// sibling hyperthread pressure.
func (m *Memory) writeCap(tid int) int {
	c := m.topology.L1Lines
	if m.pressure.SiblingActive(tid) {
		c /= 2
	}
	return c
}

// readCap returns the read-set line budget for thread tid.
func (m *Memory) readCap(tid int) int {
	c := m.topology.ReadSetLines
	if m.pressure.SiblingActive(tid) {
		c /= 2
	}
	return c
}

// TxRead performs a transactional read. It returns the value, whether the
// access was a coherence miss, and NoAbort on success; on a self-abort
// (capacity) it returns the reason, and the caller must unwind. Conflicting
// transactional writers are doomed (requester wins), so a live transaction
// never waits.
func (m *Memory) TxRead(tx *Tx, a word.Addr) (uint64, bool, AbortReason) {
	m.check(a)
	if tx.state != TxActive {
		return 0, false, tx.reason
	}
	m.c.txReads.Inc(tx.tid)
	l := word.Line(a)
	bit := uint64(1) << uint(tx.tid)
	w := m.lineWriter[l]
	if w&writerMask == int32(tx.tid+1) {
		// Store-to-load forwarding: buffered words lie only on owned lines.
		if v, ok := tx.buf.get(int(w>>writerBits), a); ok {
			return v, false, NoAbort
		}
	} else if m.lineReaders[l]&bit == 0 {
		// New line for this transaction: check capacity, then conflicts.
		if len(tx.readLines) >= m.readCap(tx.tid) {
			m.selfAbort(tx, Capacity)
			return 0, false, Capacity
		}
		if w != 0 {
			m.doom(int(w&writerMask-1), Conflict)
		}
		m.lineReaders[l] |= bit
		tx.readLines = append(tx.readLines, l)
		m.c.linesRead.Inc(tx.tid)
	}
	v, miss := m.words[a], m.readTouch(tx.tid, l)
	if m.obs != nil {
		m.obs.TxRead(tx.tid, a)
	}
	return v, miss, NoAbort
}

// TxWrite performs a transactional (buffered) write. On a self-abort it
// returns the reason. Conflicting readers and writers are doomed. The
// ownership acquisition (RFO) happens eagerly, so the coherence miss is
// reported at the first write to the line, as on real hardware.
func (m *Memory) TxWrite(tx *Tx, a word.Addr, v uint64) (bool, AbortReason) {
	m.check(a)
	if tx.state != TxActive {
		return false, tx.reason
	}
	m.c.txWrites.Inc(tx.tid)
	l := word.Line(a)
	miss := false
	w := m.lineWriter[l]
	if w&writerMask != int32(tx.tid+1) {
		if len(tx.writeLines) >= m.writeCap(tx.tid) {
			m.selfAbort(tx, Capacity)
			return false, Capacity
		}
		m.doomLineConflicts(tx.tid, l)
		w = int32(len(tx.buf.lines))<<writerBits | int32(tx.tid+1)
		m.lineWriter[l] = w
		tx.writeLines = append(tx.writeLines, l)
		m.c.linesWritten.Inc(tx.tid)
		miss = m.writeTouch(tx.tid, l)
	}
	if !tx.buf.put(int(w>>writerBits), l, a, v) {
		m.selfAbort(tx, Capacity)
		return false, Capacity
	}
	if m.obs != nil {
		m.obs.TxWrite(tx.tid, a)
	}
	return miss, NoAbort
}

// selfAbort condemns the transaction from within (capacity, explicit,
// preemption) and releases its lines.
func (m *Memory) selfAbort(tx *Tx, reason AbortReason) {
	if tx.state != TxActive {
		return
	}
	tx.state = TxDoomed
	tx.reason = reason
	m.releaseLines(tx)
	m.liveTx--
	m.refreshFast()
}

// AbortTx explicitly aborts thread tid's active transaction (if any) with
// the given reason — used for XABORT and for preemption clearing the cache.
func (m *Memory) AbortTx(tid int, reason AbortReason) {
	tx := m.txs[tid]
	if tx == nil || tx.state != TxActive {
		return
	}
	m.selfAbort(tx, reason)
}

// Evict applies the probabilistic sibling-pressure eviction: it dooms the
// transaction with a capacity abort. The scheduler decides when to call it.
func (m *Memory) Evict(tx *Tx) {
	m.selfAbort(tx, Capacity)
}

// FinishAbort acknowledges a doomed transaction: the owning thread calls it
// while unwinding. It records statistics and retires the descriptor.
// It returns the abort reason.
func (m *Memory) FinishAbort(tx *Tx) AbortReason {
	if tx.state == TxActive {
		// The caller decided to abort before any doom arrived.
		m.selfAbort(tx, Explicit)
	}
	reason := tx.reason
	switch reason {
	case Conflict:
		m.c.abortsConflict.Inc(tx.tid)
	case Capacity:
		m.c.abortsCapacity.Inc(tx.tid)
	case Preempt:
		m.c.abortsPreempt.Inc(tx.tid)
	default:
		m.c.abortsExplicit.Inc(tx.tid)
	}
	tx.state = TxIdle
	return reason
}

// Commit attempts to commit the transaction: on success the buffered writes
// become visible atomically and it returns NoAbort. If the transaction was
// doomed, nothing is written and the reason is returned; the caller must
// then call FinishAbort.
func (m *Memory) Commit(tx *Tx) AbortReason {
	if tx.state != TxActive {
		return tx.reason
	}
	for i := range tx.buf.lines {
		e := &tx.buf.lines[i]
		base := e.line << word.LineShift
		for k := e.valid; k != 0; k &= k - 1 {
			w := bits.TrailingZeros8(k)
			m.words[base+uint64(w)] = e.vals[w]
		}
	}
	m.c.committedActions.Add(tx.tid, uint64(len(tx.buf.order)))
	m.releaseLines(tx)
	m.liveTx--
	m.refreshFast()
	tx.state = TxIdle
	m.c.commits.Inc(tx.tid)
	if m.obs != nil {
		m.obs.TxCommit(tx.tid)
	}
	return NoAbort
}

// CurrentTx returns thread tid's transaction descriptor if one is active or
// doomed-but-unacknowledged, else nil.
func (m *Memory) CurrentTx(tid int) *Tx {
	tx := m.txs[tid]
	if tx == nil || tx.state == TxIdle {
		return nil
	}
	return tx
}
