package vm

import (
	"testing"
	"testing/quick"

	"leakpruning/internal/core"
	"leakpruning/internal/heap"
	"leakpruning/internal/vmerrors"
)

// TestRandomProgramsQuick drives randomly generated mutator programs
// through the full stack — allocation, loads, stores, globals, scopes,
// collections, pruning — and asserts the only ways a program can end are
// cleanly, with an OutOfMemoryError, or with an InternalError on a
// poisoned access. Anything else (a heap-corruption panic, a foreign
// error) fails the property.
func TestRandomProgramsQuick(t *testing.T) {
	type op struct {
		Kind uint8
		A, B uint8
	}
	policies := []core.Policy{nil, core.DefaultPolicy{}, core.MostStalePolicy{}, core.IndivRefsPolicy{}}

	prop := func(ops []op, seed uint8) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("runtime panic: %v", r)
				ok = false
			}
		}()
		v := New(Options{
			HeapLimit:      96 << 10,
			EnableBarriers: true,
			GCWorkers:      1 + int(seed)%3,
			Policy:         policies[int(seed)%len(policies)],
		})
		classes := []heap.ClassID{
			v.DefineClass("R0", 3, 64),
			v.DefineClass("R1", 1, 256),
			v.DefineClass("R2", 2, 16),
		}
		globals := []int{v.AddGlobal(), v.AddGlobal(), v.AddGlobal()}

		err := v.RunThread("fuzz", func(th *Thread) {
			// locals is a rotating register file of recent references.
			var locals [8]heap.Ref
			step := func(o op) {
				switch o.Kind % 6 {
				case 0: // allocate
					locals[o.A%8] = th.New(classes[int(o.B)%len(classes)])
				case 1: // store local into a local's slot
					src := locals[o.A%8]
					val := locals[o.B%8]
					if !src.IsNull() {
						th.Store(src, int(o.B)%1, val)
					}
				case 2: // load
					src := locals[o.A%8]
					if !src.IsNull() {
						locals[o.B%8] = th.Load(src, 0)
					}
				case 3: // publish to a global
					th.StoreGlobal(globals[int(o.A)%3], locals[o.B%8])
				case 4: // read a global
					locals[o.A%8] = th.LoadGlobal(globals[int(o.B)%3])
				case 5: // drop a local
					locals[o.A%8] = heap.Null
				}
			}
			for round := 0; round < 40; round++ {
				th.Scope(func() {
					// Refresh locals from globals at scope start: previous
					// scope's locals are no longer rooted.
					for i := range locals {
						locals[i] = heap.Null
					}
					for _, o := range ops {
						step(o)
					}
				})
			}
		})
		switch {
		case err == nil:
			return true
		case vmerrors.IsInternal(err), vmerrors.IsOOM(err):
			return true
		default:
			t.Logf("unexpected error: %v", err)
			return false
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomProgramsBoundedMemoryQuick: whatever a random program does, the
// heap accounting never exceeds the configured limit.
func TestRandomProgramsBoundedMemoryQuick(t *testing.T) {
	prop := func(allocs []uint8) bool {
		const limit = 64 << 10
		exceeded := false
		v := New(Options{
			HeapLimit:      limit,
			EnableBarriers: true,
			GCWorkers:      1,
			Policy:         core.DefaultPolicy{},
			OnGC: func(ev Event) {
				if ev.Heap.BytesUsed > limit {
					exceeded = true
				}
			},
		})
		cls := v.DefineClass("Blob", 1, 512)
		g := v.AddGlobal()
		_ = v.RunThread("fuzz", func(th *Thread) {
			for _, a := range allocs {
				th.Scope(func() {
					n := th.New(cls)
					if a%2 == 0 { // leak half of them
						th.Store(n, 0, th.LoadGlobal(g))
						th.StoreGlobal(g, n)
					}
				})
			}
		})
		return !exceeded && v.HeapStats().BytesUsed <= limit
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
