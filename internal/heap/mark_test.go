package heap

import (
	"runtime"
	"sync"
	"testing"
)

// TestMarkBitClaimsAndClears: a claim sets an ID's bit once, in either
// form, a cycle's clear unmarks it so the next cycle can claim it again,
// and a birth leaves the bitmap as it found it, whether its slot was
// pre-marked or not.
func TestMarkBitClaimsAndClears(t *testing.T) {
	h, r := allocObject(t, 0, 0)
	id := r.ID()
	var cc ChunkCache
	h.GetCached(r, &cc)
	if h.MarkBit(id) {
		t.Fatal("a fresh object must be unmarked")
	}
	if !cc.Mark(id, false) {
		t.Fatal("the first claim must win")
	}
	if cc.Mark(id, false) || cc.Mark(id, true) {
		t.Fatal("a second claim in the same cycle must lose")
	}
	if !h.MarkBit(id) {
		t.Fatal("the object must be marked after its claim")
	}
	h.ClearMarks()
	if h.MarkBit(id) {
		t.Fatal("the next cycle's clear must unmark it")
	}
	if !cc.Mark(id, true) || cc.Mark(id, true) {
		t.Fatal("the next cycle's owned claim must win exactly once")
	}

	cls := h.Classes().Define("U", 0, 0)
	for _, premark := range []bool{false, true} {
		if premark {
			h.MarkFreeSlots()
		}
		before := h.chunkAt(0).marks
		r, err := h.Allocate(cls)
		if err != nil {
			t.Fatal(err)
		}
		if r.ID() >= chunkSize {
			t.Fatalf("birth %d left chunk 0", r.ID())
		}
		if h.chunkAt(0).marks != before {
			t.Fatalf("the birth of %d (slot pre-marked: %v) wrote the mark bitmap", r.ID(), premark)
		}
		if h.MarkBit(r.ID()) != premark {
			t.Fatalf("newborn %d: mark bit %v, want the pre-mark's %v", r.ID(), !premark, premark)
		}
	}
}

// TestMarkConcurrentDisjointBits: goroutines that claim disjoint bits of
// the same bitmap words through the CAS path lose none of them. Each word
// holds bits of every goroutine; run at GOMAXPROCS 4, and under -race by
// make race.
func TestMarkConcurrentDisjointBits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	h := New(NewRegistry(), 1<<20)
	const ids, goroutines, rounds = 2 * chunkSize, 4, 8
	h.ensureChunks(ids - 1)
	for round := 0; round < rounds; round++ {
		h.ClearMarks()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var cc ChunkCache
				h.GetCached(MakeRef(ids-1), &cc) // covers every chunk
				for id := ObjectID(g); id < ids; id += goroutines {
					if !cc.Mark(id, false) {
						t.Errorf("round %d: goroutine %d lost the claim of %d, which no one else claims", round, g, id)
						return
					}
				}
			}()
		}
		wg.Wait()
		for id := ObjectID(0); id < ids; id++ {
			if !h.MarkBit(id) {
				t.Fatalf("round %d: bit %d was set and then lost", round, id)
			}
		}
	}
}
