package sched

// EffectObserver receives the register and frame-slot accesses a thread
// performs while executing operation basic blocks, bracketed by block
// boundaries. The dynamic effect oracle (internal/sanitize) implements it
// to check observed accesses against the operation's declared
// Reads/Writes/LoadsPtr/Kills effect sets.
//
// It is a per-access seam, separate from the lifecycle seam (Tracer): it
// fires on every register and frame-slot access inside a block. Like
// Tracer, it is purely observational: hooks fire after the underlying
// access completes, never charge cycles, and are not part of snapshot
// state — simulated results are bit-identical with an observer installed
// or not.
type EffectObserver interface {
	// BlockStart fires immediately before a runner executes basic block
	// `block` of operation `op`.
	BlockStart(t *Thread, op string, block int)
	// BlockEnd fires when the block's execution ends. committed is false
	// when the enclosing transaction segment aborted mid-block: the
	// block's writes rolled back and its execution may be partial, so
	// must-write (Kills) obligations do not apply.
	BlockEnd(t *Thread, op string, block int, committed bool)
	// RegRead/RegWrite fire on working-register accesses.
	RegRead(t *Thread, r int)
	RegWrite(t *Thread, r int, v uint64)
	// SlotRead/SlotWrite fire on frame-slot accesses; slot is relative to
	// the operation's frame base.
	SlotRead(t *Thread, slot int)
	SlotWrite(t *Thread, slot int, v uint64)
}
