package heap

import (
	"strings"
	"testing"

	"leakpruning/internal/faultinject"
)

func auditMustBeClean(t *testing.T, h *Heap, stage string) {
	t.Helper()
	if v := h.Audit(); len(v) != 0 {
		t.Fatalf("%s: audit violations: %v", stage, v)
	}
}

func TestAuditCleanHeap(t *testing.T) {
	reg := NewRegistry()
	node := reg.Define("Node", 2, 32)
	h := New(reg, 1<<20)
	auditMustBeClean(t, h, "empty")

	var ids []ObjectID
	for i := 0; i < 300; i++ {
		r, err := h.Allocate(node)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID())
	}
	auditMustBeClean(t, h, "after alloc")

	for _, id := range ids[:150] {
		h.FreeBatch([]ObjectID{id})
	}
	auditMustBeClean(t, h, "after free")

	// Recycling freed slots must keep the audit clean too.
	for i := 0; i < 100; i++ {
		if _, err := h.Allocate(node); err != nil {
			t.Fatal(err)
		}
	}
	auditMustBeClean(t, h, "after recycle")
}

func TestAuditWithOffloadedObjects(t *testing.T) {
	reg := NewRegistry()
	node := reg.Define("Node", 0, 64)
	h := New(reg, 1<<20)
	h.SetDiskLimit(1 << 20)
	var ids []ObjectID
	for i := 0; i < 20; i++ {
		r, err := h.Allocate(node)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID())
	}
	for _, id := range ids[:10] {
		if err := h.Offload(id); err != nil {
			t.Fatal(err)
		}
	}
	auditMustBeClean(t, h, "offloaded")
	if err := h.FaultIn(ids[0]); err != nil {
		t.Fatal(err)
	}
	h.FreeBatch([]ObjectID{ids[1]}) // free an offloaded object: disk account must follow
	auditMustBeClean(t, h, "after fault-in and free")
}

func TestAuditDetectsCounterDrift(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drift func(h *Heap)
		want  string
	}{
		{"alloc bytes", func(h *Heap) { h.bytesAlloc.Add(8) }, "bytesAlloc-bytesFreed"},
		{"object count", func(h *Heap) { h.objectsFreed.Add(1) }, "objectsAlloc-objectsFreed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			node := reg.Define("Node", 0, 16)
			h := New(reg, 1<<20)
			if _, err := h.Allocate(node); err != nil {
				t.Fatal(err)
			}
			auditMustBeClean(t, h, "before drift")
			tc.drift(h) // simulated accounting drift
			v := h.Audit()
			if len(v) != 1 || !strings.Contains(v[0], tc.want) {
				t.Fatalf("audit reported %v, want one %q violation", v, tc.want)
			}
		})
	}
}

func TestAuditDetectsUsedBytesDrift(t *testing.T) {
	reg := NewRegistry()
	node := reg.Define("Node", 0, 16)
	h := New(reg, 1<<20)
	if _, err := h.Allocate(node); err != nil {
		t.Fatal(err)
	}
	h.used.Add(1)
	v := h.Audit()
	if len(v) == 0 || !strings.Contains(v[0], "global used-bytes") {
		t.Fatalf("audit missed global used-bytes drift: %v", v)
	}
}

func TestAuditDetectsFreeListCorruption(t *testing.T) {
	reg := NewRegistry()
	node := reg.Define("Node", 0, 16)
	h := New(reg, 1<<20)
	r, err := h.Allocate(node)
	if err != nil {
		t.Fatal(err)
	}
	// Plant a free-list entry naming the live object.
	h.freeMu.Lock()
	h.free = append(h.free, r.ID())
	h.freeMu.Unlock()
	v := h.Audit()
	found := false
	for _, msg := range v {
		if strings.Contains(msg, "names a live slot") {
			found = true
		}
	}
	if !found {
		t.Fatalf("audit missed live slot on free list: %v", v)
	}
}

func TestInjectedFreeListCorruptionIsRepaired(t *testing.T) {
	reg := NewRegistry()
	node := reg.Define("Node", 0, 16)
	inj := faultinject.New(1)
	inj.Arm(faultinject.ShardFreeListCorruption, 1.0)
	inj.Limit(faultinject.ShardFreeListCorruption, 1)

	h := New(reg, 1<<20)
	h.SetFaultInjector(inj)
	var ids []ObjectID
	for i := 0; i < 10; i++ {
		r, err := h.Allocate(node)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID())
	}
	for _, id := range ids {
		h.FreeBatch([]ObjectID{id})
	}
	if inj.Fires(faultinject.ShardFreeListCorruption) != 1 {
		t.Fatalf("corruption fired %d times, want 1", inj.Fires(faultinject.ShardFreeListCorruption))
	}
	if got := h.FreeListRepairs(); got != 1 {
		t.Fatalf("FreeListRepairs = %d, want 1", got)
	}
	if st := h.Stats(); st.FreeListRepairs != 1 {
		t.Fatalf("Stats.FreeListRepairs = %d, want 1", st.FreeListRepairs)
	}
	// The repair happened under the same lock hold, so the audit is clean.
	auditMustBeClean(t, h, "after injected corruption")
}

func TestPopFreeDiscardsCorruptEntry(t *testing.T) {
	reg := NewRegistry()
	node := reg.Define("Node", 0, 16)
	h := New(reg, 1<<20)
	r, err := h.Allocate(node)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the free list directly (no injector): push the live object's
	// ID onto it, then allocate until the list drains. The corrupt entry
	// must be discarded, not handed out.
	h.freeMu.Lock()
	h.free = append(h.free, r.ID())
	h.freeMu.Unlock()
	seen := map[ObjectID]bool{r.ID(): true}
	for i := 0; i < 2*freshBlock; i++ {
		rr, err := h.Allocate(node)
		if err != nil {
			t.Fatal(err)
		}
		if seen[rr.ID()] {
			t.Fatalf("slot %d handed out twice", rr.ID())
		}
		seen[rr.ID()] = true
	}
	if h.FreeListRepairs() == 0 {
		t.Fatal("corrupt entry was not counted as repaired")
	}
	auditMustBeClean(t, h, "after corrupt pop")
}

func TestInjectedAllocLimitRace(t *testing.T) {
	reg := NewRegistry()
	node := reg.Define("Node", 0, 16)
	inj := faultinject.New(2)
	inj.Arm(faultinject.AllocLimitRace, 1.0)
	inj.Limit(faultinject.AllocLimitRace, 1)
	h := New(reg, 1<<20)
	h.SetFaultInjector(inj)
	if _, err := h.Allocate(node); err != ErrHeapFull {
		t.Fatalf("injected limit race returned %v, want ErrHeapFull", err)
	}
	// Transient: the retry (fire cap exhausted) succeeds.
	if _, err := h.Allocate(node); err != nil {
		t.Fatalf("retry after injected race failed: %v", err)
	}
	auditMustBeClean(t, h, "after injected race")
}
