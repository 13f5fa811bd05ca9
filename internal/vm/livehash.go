package vm

import "leakpruning/internal/heap"

// liveSetHash fingerprints the entire live heap: every object's identity,
// class, size, stale counter, and raw reference words (tags included). Two
// runs whose per-cycle hashes agree have byte-identical live sets — the
// strongest form of equivalence the mark-mode and multi-tenant isolation
// proofs assert. The value is an equality oracle between runs of one
// binary, never stored across builds, so the mix is free to be whatever is
// cheapest inside a pause. Caller must hold the world stopped (or otherwise
// know no mutator is running).
func liveSetHash(h *heap.Heap) uint64 {
	var sum uint64 = hashSeed
	h.ForEach(func(id heap.ObjectID, obj *heap.Object) {
		sum = hashWord(sum, uint64(id))
		sum = hashWord(sum, uint64(obj.Class()))
		sum = hashWord(sum, obj.Size())
		sum = hashWord(sum, uint64(h.Stale(obj)))
		for slot, n := 0, obj.NumRefs(); slot < n; slot++ {
			sum = hashWord(sum, uint64(obj.Ref(slot)))
		}
	})
	return sum
}

const (
	hashSeed = 0xcbf29ce484222325 // FNV-64 offset basis
	hashMul  = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
)

// hashWord folds one 64-bit word into the running fingerprint: xor,
// multiply by an odd constant, xor-shift the high half down. Each step is
// a bijection of sum for a fixed x and of x for a fixed sum, so two word
// streams of equal length that differ in exactly one word never collide;
// the xor-shift feeds the high half back into the low bits, which a
// multiply alone never reaches.
func hashWord(sum, x uint64) uint64 {
	sum = (sum ^ x) * hashMul
	return sum ^ sum>>32
}

// LiveSetHash stops the world and returns the live-set fingerprint — the
// quiescent-point form of the per-cycle hash Options.HashLiveSet delivers
// in Event.LiveHash. Must not be called from inside a mutator critical
// region, a finalizer, or a GC callback.
func (v *VM) LiveSetHash() uint64 {
	v.stopTheWorld()
	defer v.startTheWorld()
	v.flushTLABs()
	return liveSetHash(v.heap)
}
