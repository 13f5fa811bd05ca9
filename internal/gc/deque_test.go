package gc

import (
	"sync"
	"testing"

	"leakpruning/internal/heap"
)

func batchOf(id heap.ObjectID) *workBatch {
	return &workBatch{ids: []heap.ObjectID{id}}
}

func TestDequeOwnerLIFO(t *testing.T) {
	var d wsDeque
	d.reset()
	for i := 1; i <= 200; i++ { // crosses a grow at 64 and 128
		d.push(batchOf(heap.ObjectID(i)))
	}
	for i := 200; i >= 1; i-- {
		b := d.pop()
		if b == nil || b.ids[0] != heap.ObjectID(i) {
			t.Fatalf("pop %d: got %v", i, b)
		}
	}
	if d.pop() != nil {
		t.Fatal("pop of empty deque returned a batch")
	}
	if !d.empty() {
		t.Fatal("drained deque not empty")
	}
}

func TestDequeStealFIFO(t *testing.T) {
	var d wsDeque
	d.reset()
	for i := 1; i <= 10; i++ {
		d.push(batchOf(heap.ObjectID(i)))
	}
	// Thieves take from the opposite end: oldest first.
	if b := d.steal(); b == nil || b.ids[0] != 1 {
		t.Fatalf("first steal got %v", b)
	}
	if b := d.pop(); b == nil || b.ids[0] != 10 {
		t.Fatalf("owner pop got %v", b)
	}
}

// TestDequeConcurrentSteal pushes batches from the owner while thieves
// steal, and checks every batch is consumed exactly once. Run with -race.
func TestDequeConcurrentSteal(t *testing.T) {
	const total = 20000
	const thieves = 4
	var d wsDeque
	d.reset()

	counts := make([][]int, thieves+1) // per-consumer tallies, merged later
	for i := range counts {
		counts[i] = make([]int, total+1)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for {
				if b := d.steal(); b != nil {
					counts[th][b.ids[0]]++
					continue
				}
				select {
				case <-done:
					// Drain whatever is left after the owner stopped.
					if b := d.steal(); b != nil {
						counts[th][b.ids[0]]++
						continue
					}
					return
				default:
				}
			}
		}(th)
	}

	// Owner: push everything, popping a few along the way to exercise the
	// bottom-end race.
	for i := 1; i <= total; i++ {
		d.push(batchOf(heap.ObjectID(i)))
		if i%7 == 0 {
			if b := d.pop(); b != nil {
				counts[thieves][b.ids[0]]++
			}
		}
	}
	for {
		b := d.pop()
		if b == nil && d.empty() {
			break
		}
		if b != nil {
			counts[thieves][b.ids[0]]++
		}
	}
	close(done)
	wg.Wait()

	for id := 1; id <= total; id++ {
		n := 0
		for _, c := range counts {
			n += c[id]
		}
		if n != 1 {
			t.Fatalf("batch %d consumed %d times", id, n)
		}
	}
}
