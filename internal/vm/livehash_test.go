package vm

import (
	"testing"

	"leakpruning/internal/heap"
)

// hashFixture builds a two-object heap and fingerprints it. The base heap
// is the same on every call; a non-empty vary changes exactly one hashed
// word: an object's ID, class, size or stale counter, or one reference
// word's tag bit.
func hashFixture(t *testing.T, vary string) uint64 {
	t.Helper()
	reg := heap.NewRegistry()
	node := reg.Define("Node", 2, 16)
	twin := reg.Define("Twin", 2, 16) // Node's shape under another class ID
	h := heap.New(reg, 1<<20)
	alloc := func(class heap.ClassID, opts ...heap.AllocOption) heap.Ref {
		r, err := h.Allocate(class, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	var pad heap.Ref
	if vary == "id" {
		pad = alloc(node) // pushes both objects one ID up
	}
	a := alloc(node)
	var b heap.Ref
	switch vary {
	case "class":
		b = alloc(twin)
	case "size":
		b = alloc(node, heap.WithScalarBytes(24))
	default:
		b = alloc(node)
	}
	if !pad.IsNull() {
		h.FreeBatch([]heap.ObjectID{pad.ID()})
	}
	// The hash reads reference words without following them, so a fixed
	// word keeps the "id" variant from also changing a reference.
	target := heap.MakeRef(7)
	h.Get(a).SetRef(1, target)
	switch vary {
	case "stale":
		h.SetStale(h.Get(b), 3)
	case "ref-tag":
		h.Get(a).SetRef(1, target.WithStale())
	}
	return liveSetHash(h)
}

// TestLiveSetHashSensitivity: the fingerprint is stable across identical
// runs and moves when any single hashed word does.
func TestLiveSetHashSensitivity(t *testing.T) {
	base := hashFixture(t, "")
	if again := hashFixture(t, ""); again != base {
		t.Fatalf("identical heaps hashed to %#x and %#x", base, again)
	}
	seen := map[uint64]string{base: "base"}
	for _, vary := range []string{"id", "class", "size", "stale", "ref-tag"} {
		got := hashFixture(t, vary)
		if prev, dup := seen[got]; dup {
			t.Errorf("varying %s hashed to %#x, the same as %s", vary, got, prev)
		}
		seen[got] = vary
	}
}
