// Observability example: the runtime's operational surfaces — verbose-GC
// logging, lazy barrier activation, the prune report, and a Graphviz dump of
// the final heap (written under os.TempDir()).
//
//	go run ./examples/observability
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"leakpruning/internal/core"
	"leakpruning/internal/vm"
)

func main() {
	machine := vm.New(vm.Options{
		HeapLimit:      1 << 20, // 1 MB
		EnableBarriers: true,
		LazyBarriers:   true, // barriers "recompile in" at OBSERVE (§5)
		Policy:         core.DefaultPolicy{},
		GCLog:          os.Stdout,
		OnPrune: func(ev core.PruneEvent) {
			fmt.Printf("## prune report: %s (%d refs)\n", ev.Selection, ev.PrunedRefs)
		},
	})

	cache := machine.DefineClass("CacheEntry", 2, 0) // value, next
	blob := machine.DefineClass("Blob", 0, 4096)
	head := machine.AddGlobal()

	err := machine.RunThread("main", func(t *vm.Thread) {
		for i := 0; i < 2500; i++ {
			t.Scope(func() {
				// The leak: cache entries accumulate, their blobs unread.
				e := t.New(cache)
				t.Store(e, 0, t.New(blob))
				t.Store(e, 1, t.LoadGlobal(head))
				t.StoreGlobal(head, e)
			})
		}
	})

	st := machine.Stats()
	fmt.Printf("\nrun ended: err=%v\n", err)
	fmt.Printf("collections: %d\n", st.Collections)
	fmt.Printf("barrier cold-path hits: %d (zero until OBSERVE armed them)\n", st.BarrierHits)
	fmt.Printf("pruned references: %d\n", st.PrunedRefs)

	fmt.Println("\nfinal heap composition:")
	for i, row := range machine.HeapHistogram() {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-12s %6d objects %8d bytes\n", row.Class, row.Objects, row.Bytes)
	}

	path := filepath.Join(os.TempDir(), "heap.dot")
	f, ferr := os.Create(path)
	if ferr != nil {
		fmt.Fprintln(os.Stderr, ferr)
		os.Exit(1)
	}
	defer f.Close()
	if derr := machine.DumpDot(f, 64); derr != nil {
		fmt.Fprintln(os.Stderr, derr)
		os.Exit(1)
	}
	fmt.Printf("\nheap graph written to %s (render: dot -Tsvg %s)\n", path, path)
}
