package heap

import (
	"fmt"
	"sync"
	"testing"
)

func TestRegistryDefineAndLookup(t *testing.T) {
	r := NewRegistry()
	a := r.Define("A", 2, 16)
	b := r.Define("B", 0, 64)
	if a == b {
		t.Fatal("distinct classes got the same ID")
	}
	if a == 0 || b == 0 {
		t.Fatal("ClassID 0 is reserved")
	}
	if got, ok := r.Lookup("A"); !ok || got != a {
		t.Fatalf("Lookup(A) = %v, %v", got, ok)
	}
	if _, ok := r.Lookup("C"); ok {
		t.Fatal("Lookup of undefined class succeeded")
	}
	if c := r.Get(a); c.Name != "A" || c.RefSlots != 2 || c.ScalarBytes != 16 {
		t.Fatalf("Get(A) = %+v", c)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Fatalf("Names = %v", names)
	}
}

func TestRegistryRedefineSameShape(t *testing.T) {
	r := NewRegistry()
	a := r.Define("A", 1, 8)
	if r.Define("A", 1, 8) != a {
		t.Fatal("same-shape redefine must return the existing ID")
	}
}

func TestRegistryRedefineDifferentShapePanics(t *testing.T) {
	r := NewRegistry()
	r.Define("A", 1, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("shape-mismatch redefine must panic")
		}
	}()
	r.Define("A", 2, 8)
}

func TestRegistryInvalidDefinitions(t *testing.T) {
	r := NewRegistry()
	for _, tc := range []struct {
		name        string
		refs, bytes int
	}{
		{"", 0, 0},
		{"neg-refs", -1, 0},
		{"neg-bytes", 0, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Define(%q,%d,%d) must panic", tc.name, tc.refs, tc.bytes)
				}
			}()
			r.Define(tc.name, tc.refs, tc.bytes)
		}()
	}
}

func TestRegistryUnknownIDPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("Get of unknown ID must panic")
		}
	}()
	r.Get(99)
}

func TestRegistryName(t *testing.T) {
	r := NewRegistry()
	a := r.Define("Widget", 0, 0)
	if r.Name(a) != "Widget" {
		t.Fatalf("Name = %q", r.Name(a))
	}
	if r.Name(0) != "<class0>" {
		t.Fatalf("Name(0) = %q", r.Name(0))
	}
}

func TestRegistryConcurrentDefine(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	ids := make([]ClassID, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = r.Define("Shared", 3, 24)
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id != ids[0] {
			t.Fatal("concurrent Define of the same class returned different IDs")
		}
	}
}

// TestRegistryDefineWhileResolving resolves IDs from several goroutines
// while another keeps defining classes: readers must always see a complete
// table (every ID handed out so far resolves to its own definition). Run
// with -race.
func TestRegistryDefineWhileResolving(t *testing.T) {
	r := NewRegistry()
	const classes = 300
	ids := make(chan ClassID, classes)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ids {
				for probe := ClassID(1); probe <= id; probe += 7 {
					c := r.Get(probe)
					if c.ID != probe || c.RefSlots != int(probe)%5 || r.Name(probe) != c.Name {
						t.Errorf("Get(%d) = %+v", probe, c)
						return
					}
				}
				if n := r.Len(); n < int(id) {
					t.Errorf("Len = %d after class %d was defined", n, id)
					return
				}
			}
		}()
	}
	for i := 1; i <= classes; i++ {
		ids <- r.Define(fmt.Sprintf("C%d", i), i%5, i)
	}
	close(ids)
	wg.Wait()
	if r.Len() != classes {
		t.Fatalf("Len = %d, want %d", r.Len(), classes)
	}
}
