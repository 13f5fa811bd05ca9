package gc

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"leakpruning/internal/heap"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/free_order.golden from this build")

// freeOrderScript runs a fixed program of allocations (four allocation
// contexts, shapes of 0, 2, 4, 5 and 9 reference slots), pointer stores and
// collections in every mode through a collector with the given worker count,
// and returns the first IDs handed out after each sweep — the ones that
// come off the free lists the sweep just filled. The live set spans several
// thousand slots, so the sweep shards, and hangs off one hub wide enough
// that its children with slots alone pass spillAt (leaves are tallied at
// their claim and never pushed), so the closure spills and helpers mark.
func freeOrderScript(t *testing.T, workers int) []heap.ObjectID {
	t.Helper()
	const rounds, burst, recorded, hubSlots = 8, 1500, 512, 1024
	th := newTestHeap(t)
	var classes []heap.ClassID
	for _, slots := range []int{0, 2, 4, 5, 9} {
		classes = append(classes, th.class(t, fmt.Sprintf("C%d", slots), slots, 8*slots))
	}
	hub := th.alloc(t, th.class(t, "Hub", hubSlots, 0))
	th.roots.refs = []heap.Ref{hub}
	col := th.collector(workers)

	rnd := uint64(0x2545f4914f6cdd1d)
	next := func(n int) int { // xorshift: the script must not depend on math/rand's stream
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return int(rnd % uint64(n))
	}
	ctxs := make([]heap.AllocContext, 4)
	for i := range ctxs {
		ctxs[i] = th.h.NewAllocContext()
	}
	release := func() {
		cs := make([]*heap.AllocContext, len(ctxs))
		for i := range ctxs {
			cs[i] = &ctxs[i]
		}
		th.h.ReleaseContexts(cs)
	}
	plans := []Plan{
		{Mode: ModeNormal},
		{Mode: ModeNormal, TagRefs: true, AgeStaleness: true},
		{Mode: ModeSelect, TagRefs: true, AgeStaleness: true, Candidate: staleTarget},
		{Mode: ModePrune, TagRefs: true, AgeStaleness: true, ShouldPrune: func(_, tgt heap.ClassID, stale uint8) bool {
			return tgt == classes[4] && stale >= 1
		}},
	}

	var out []heap.ObjectID
	live := []heap.Ref{hub}
	for round := 0; round < rounds; round++ {
		for i := 0; i < burst; {
			ctx := &ctxs[next(len(ctxs))]
			for n := 1 + next(40); n > 0 && i < burst; n, i = n-1, i+1 {
				r, err := th.h.AllocateCtx(ctx, classes[next(len(classes))])
				if err != nil {
					t.Fatal(err)
				}
				if round > 0 && i < recorded {
					out = append(out, r.ID())
				}
				// A third of the new objects hang off the hub, most of the rest
				// off a random earlier object; whatever lands nowhere is garbage.
				if next(3) == 0 {
					th.link(hub, next(hubSlots), r)
				} else if src := th.h.Get(live[next(len(live))]); src.NumRefs() > 0 && next(4) != 0 {
					src.SetRef(next(src.NumRefs()), r)
				}
				live = append(live, r)
			}
		}
		release()
		res := col.Collect(plans[round%len(plans)])
		if res.Degraded {
			t.Fatalf("workers=%d round %d: cycle degraded (%s)", workers, round, res.DegradeCause)
		}
		kept := live[:0]
		for _, r := range live {
			if th.alive(r) {
				kept = append(kept, r)
			}
		}
		live = kept
	}
	release()
	if workers > 1 && col.scratch.launches == 0 {
		t.Fatalf("workers=%d: the closure launched no helper", workers)
	}
	assertCleanAudit(t, th.h, "after the free-order script")
	return out
}

// TestFreeOrderMatchesGolden pins the IDs recycled after each sweep against
// a list written by an earlier build, at 1, 2 and 4 workers. Comparing
// worker counts within one build (TestSweepFreeOrderIndependentOfWorkers)
// cannot catch a change to the free order that every worker count shares;
// replay, trace-smoke and the fault matrix's live-set hashes compare IDs
// across builds, so that would break them.
func TestFreeOrderMatchesGolden(t *testing.T) {
	const path = "testdata/free_order.golden"
	for _, workers := range []int{1, 2, 4} {
		got := freeOrderScript(t, workers)
		var b strings.Builder
		for i, id := range got {
			sep := " "
			if i%16 == 15 {
				sep = "\n"
			}
			fmt.Fprintf(&b, "%d%s", id, sep)
		}
		text := strings.TrimRight(b.String(), " \n") + "\n"
		if *updateGolden && workers == 1 {
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if text == string(want) {
			continue
		}
		wantIDs := strings.Fields(string(want))
		for i, id := range got {
			if i >= len(wantIDs) || fmt.Sprint(id) != wantIDs[i] {
				t.Fatalf("workers=%d: recycled ID %d of %d is %d, golden has %v", workers, i, len(got), id, wantIDs[i:min(i+1, len(wantIDs))])
			}
		}
		t.Fatalf("workers=%d: script recorded %d IDs, golden has %d", workers, len(got), len(wantIDs))
	}
}
