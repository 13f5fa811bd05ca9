package heap

import (
	"errors"
	"testing"
)

func newOffloadHeap(t *testing.T) (*Heap, ClassID) {
	t.Helper()
	reg := NewRegistry()
	blob := reg.Define("Blob", 0, 1000)
	h := New(reg, 8000)
	h.SetDiskLimit(2200)
	return h, blob
}

func TestOffloadMovesBytesToDisk(t *testing.T) {
	h, blob := newOffloadHeap(t)
	r, err := h.Allocate(blob)
	if err != nil {
		t.Fatal(err)
	}
	size := h.Get(r).Size()
	if err := h.Offload(r.ID()); err != nil {
		t.Fatal(err)
	}
	if !h.Get(r).IsOffloaded() {
		t.Fatal("object not flagged offloaded")
	}
	if h.Stats().BytesUsed != 0 {
		t.Fatal("heap bytes not released")
	}
	d := h.Disk()
	if d.BytesUsed != size || d.Offloads != 1 {
		t.Fatalf("disk stats %+v", d)
	}
	// Offloading twice is a no-op.
	if err := h.Offload(r.ID()); err != nil {
		t.Fatal(err)
	}
	if h.Disk().BytesUsed != size {
		t.Fatal("double offload double-counted")
	}
}

func TestOffloadDiskFull(t *testing.T) {
	h, blob := newOffloadHeap(t) // disk 2200: holds two 1016-byte blobs
	var refs []Ref
	for i := 0; i < 3; i++ {
		r, err := h.Allocate(blob)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	if err := h.Offload(refs[0].ID()); err != nil {
		t.Fatal(err)
	}
	if err := h.Offload(refs[1].ID()); err != nil {
		t.Fatal(err)
	}
	if err := h.Offload(refs[2].ID()); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("expected ErrDiskFull, got %v", err)
	}
	if h.Get(refs[2]).IsOffloaded() {
		t.Fatal("rejected offload still flagged the object")
	}
}

func TestFaultInRoundTrip(t *testing.T) {
	h, blob := newOffloadHeap(t)
	r, _ := h.Allocate(blob)
	size := h.Get(r).Size()
	if err := h.Offload(r.ID()); err != nil {
		t.Fatal(err)
	}
	if err := h.FaultIn(r.ID()); err != nil {
		t.Fatal(err)
	}
	if h.Get(r).IsOffloaded() {
		t.Fatal("object still flagged after fault-in")
	}
	if h.Stats().BytesUsed != size || h.Disk().BytesUsed != 0 {
		t.Fatalf("accounting after fault-in: heap %d disk %d", h.Stats().BytesUsed, h.Disk().BytesUsed)
	}
	if h.Disk().FaultIns != 1 {
		t.Fatal("fault-in not counted")
	}
	// Fault-in of a resident object is a no-op.
	if err := h.FaultIn(r.ID()); err != nil {
		t.Fatal(err)
	}
}

func TestFaultInHeapFull(t *testing.T) {
	reg := NewRegistry()
	blob := reg.Define("Blob", 0, 1000)
	h := New(reg, 1100) // one blob fits
	h.SetDiskLimit(10000)
	r1, _ := h.Allocate(blob)
	if err := h.Offload(r1.ID()); err != nil {
		t.Fatal(err)
	}
	r2, err := h.Allocate(blob) // heap now holds r2
	if err != nil {
		t.Fatal(err)
	}
	_ = r2
	if err := h.FaultIn(r1.ID()); !errors.Is(err, ErrHeapFull) {
		t.Fatalf("expected ErrHeapFull, got %v", err)
	}
	if !h.Get(r1).IsOffloaded() {
		t.Fatal("failed fault-in changed residency")
	}
}

func TestFreeOffloadedObjectCreditsDisk(t *testing.T) {
	h, blob := newOffloadHeap(t)
	r, _ := h.Allocate(blob)
	if err := h.Offload(r.ID()); err != nil {
		t.Fatal(err)
	}
	h.FreeBatch([]ObjectID{r.ID()})
	if h.Disk().BytesUsed != 0 {
		t.Fatal("freeing an offloaded object must credit the disk")
	}
	st := h.Stats()
	if st.BytesUsed != 0 || st.ObjectsUsed != 0 || st.ObjectsFreed != 1 {
		t.Fatalf("stats after freeing offloaded object: %+v", st)
	}
	// The recycled slot starts resident.
	r2, _ := h.Allocate(blob)
	if h.Get(r2).IsOffloaded() {
		t.Fatal("recycled slot inherited the offload flag")
	}
}
