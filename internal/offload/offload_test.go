package offload

import (
	"testing"

	"leakpruning/internal/heap"
)

func buildHeap(t *testing.T, limit, disk uint64) (*heap.Heap, heap.ClassID) {
	t.Helper()
	reg := heap.NewRegistry()
	blob := reg.Define("Blob", 0, 1000)
	h := heap.New(reg, limit)
	h.SetDiskLimit(disk)
	return h, blob
}

func TestAfterGCNoopBelowThreshold(t *testing.T) {
	h, blob := buildHeap(t, 100000, 100000)
	r, _ := h.Allocate(blob)
	h.SetStale(h.Get(r), 7)
	c := New(Config{DiskLimit: 100000})
	if moved := c.AfterGC(h); moved != 0 {
		t.Fatalf("moved %d bytes below the threshold", moved)
	}
}

func TestAfterGCMovesStalestFirst(t *testing.T) {
	h, blob := buildHeap(t, 11000, 100000)
	// Ten blobs fill the heap past 90%; staleness 7,6,...
	var refs []heap.Ref
	for i := 0; i < 10; i++ {
		r, err := h.Allocate(blob)
		if err != nil {
			t.Fatal(err)
		}
		h.SetStale(h.Get(r), uint8(7-i%6)) // 7,6,5,4,3,2,7,6,5,4
		refs = append(refs, r)
	}
	c := New(Config{DiskLimit: 100000, TargetFraction: 0.5})
	moved := c.AfterGC(h)
	if moved == 0 {
		t.Fatal("nothing moved")
	}
	if f := h.Stats().Fullness(); f > 0.5+0.1 {
		t.Fatalf("fullness after offload %v", f)
	}
	// The stalest objects must be the offloaded ones: every offloaded
	// object's staleness is >= every resident object's staleness.
	minOff, maxRes := uint8(255), uint8(0)
	for _, r := range refs {
		obj := h.Get(r)
		if obj.IsOffloaded() {
			if s := h.Stale(obj); s < minOff {
				minOff = s
			}
		} else if s := h.Stale(obj); s > maxRes {
			maxRes = s
		}
	}
	if minOff < maxRes {
		t.Fatalf("offloaded staleness %d below resident staleness %d", minOff, maxRes)
	}
	if c.Stats().Rounds != 1 || c.Stats().ObjectsMoved == 0 {
		t.Fatalf("stats %+v", c.Stats())
	}
}

func TestAfterGCRespectsMinStale(t *testing.T) {
	h, blob := buildHeap(t, 11000, 100000)
	for i := 0; i < 10; i++ {
		r, err := h.Allocate(blob)
		if err != nil {
			t.Fatal(err)
		}
		h.SetStale(h.Get(r), 1) // below the bar
	}
	c := New(Config{DiskLimit: 100000})
	if moved := c.AfterGC(h); moved != 0 {
		t.Fatalf("moved %d bytes of insufficiently stale objects", moved)
	}
}

func TestAfterGCStopsAtDiskFull(t *testing.T) {
	h, blob := buildHeap(t, 11000, 1500) // disk holds one blob
	for i := 0; i < 10; i++ {
		r, err := h.Allocate(blob)
		if err != nil {
			t.Fatal(err)
		}
		h.SetStale(h.Get(r), 7)
	}
	c := New(Config{DiskLimit: 1500})
	moved := c.AfterGC(h)
	if moved == 0 {
		t.Fatal("expected one object to move before the disk filled")
	}
	if c.Stats().DiskFullHits == 0 {
		t.Fatal("disk-full rejection not recorded")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := New(Config{DiskLimit: 1})
	cfg := c.Config()
	if cfg.NearlyFullFraction != 0.9 || cfg.TargetFraction != 0.7 || cfg.MinStale != 2 {
		t.Fatalf("defaults %+v", cfg)
	}
}

func TestRecordFault(t *testing.T) {
	c := New(Config{DiskLimit: 1})
	c.RecordFault(123)
	c.RecordFault(7)
	st := c.Stats()
	if st.ObjectsFaults != 2 || st.BytesFaultIn != 130 {
		t.Fatalf("fault stats %+v", st)
	}
}
