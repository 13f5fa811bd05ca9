package heap

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Class describes one object type. The simulated heap does not interpret
// scalar payloads; ScalarBytes only contributes to the byte accounting that
// drives heap exhaustion, GC triggering, and leak pruning's bytesUsed
// selection metric.
type Class struct {
	ID   ClassID
	Name string
	// RefSlots is the default number of reference fields for instances of
	// this class. Individual allocations may override it (arrays).
	RefSlots int
	// ScalarBytes is the default non-reference payload size in bytes.
	// Individual allocations may override it.
	ScalarBytes int
}

// Registry assigns ClassIDs and resolves them back to metadata. A Registry
// is safe for concurrent use. Resolving an ID (Get, Name, Len) is on the
// allocation path, so it reads an immutable table through one atomic load;
// Define, which workloads call a handful of times up front, publishes a
// copy with the new class appended.
type Registry struct {
	mu     sync.Mutex // serializes Define; guards byName
	byName map[string]ClassID
	// table is the current ID-indexed class table (index == ClassID; slot 0
	// is a placeholder). A published table is never written again.
	table atomic.Pointer[[]Class]
}

// NewRegistry returns an empty class registry.
func NewRegistry() *Registry {
	r := &Registry{byName: make(map[string]ClassID)}
	r.table.Store(&[]Class{{}}) // reserve ClassID 0
	return r
}

// Define registers a class and returns its ID. Defining the same name twice
// returns the existing ID if the shape matches and panics otherwise:
// class definitions are program structure, so a mismatch is a programming
// error, not a runtime condition.
func (r *Registry) Define(name string, refSlots, scalarBytes int) ClassID {
	if name == "" {
		panic("heap: class name must be non-empty")
	}
	if refSlots < 0 || scalarBytes < 0 {
		panic(fmt.Sprintf("heap: negative shape for class %s", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.table.Load()
	if id, ok := r.byName[name]; ok {
		c := old[id]
		if c.RefSlots != refSlots || c.ScalarBytes != scalarBytes {
			panic(fmt.Sprintf("heap: class %s redefined with different shape", name))
		}
		return id
	}
	id := ClassID(len(old))
	table := make([]Class, len(old)+1)
	copy(table, old)
	table[id] = Class{ID: id, Name: name, RefSlots: refSlots, ScalarBytes: scalarBytes}
	r.table.Store(&table)
	r.byName[name] = id
	return id
}

// Lookup returns the ID for name, if defined.
func (r *Registry) Lookup(name string) (ClassID, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.byName[name]
	return id, ok
}

// Get returns the class metadata for id. It panics on an unknown ID, which
// indicates heap corruption.
func (r *Registry) Get(id ClassID) Class {
	table := *r.table.Load()
	if int(id) >= len(table) || id == 0 {
		panic(fmt.Sprintf("heap: unknown class id %d", id))
	}
	return table[id]
}

// Shape returns the default reference-slot count and scalar payload size of
// class id, read in place from the table. It is the allocator's lookup: it
// inlines (make bench-smoke checks that it inlines into the allocation
// path), so a birth copies no Class. It panics on an unknown ID, as Get
// does; the panic value is a small error type so that the panic costs the
// inliner no call.
func (r *Registry) Shape(id ClassID) (refSlots, scalarBytes int) {
	table := *r.table.Load()
	if int(id) >= len(table) || id == 0 {
		panic(unknownClassError(id))
	}
	c := &table[id]
	return c.RefSlots, c.ScalarBytes
}

// unknownClassError is Shape's panic value.
type unknownClassError ClassID

func (id unknownClassError) Error() string { return fmt.Sprintf("heap: unknown class id %d", id) }

// Name returns the class name for id, or "<class0>" for the reserved ID.
func (r *Registry) Name(id ClassID) string {
	if id == 0 {
		return "<class0>"
	}
	return r.Get(id).Name
}

// Len returns the number of defined classes.
func (r *Registry) Len() int { return len(*r.table.Load()) - 1 }

// Names returns all defined class names in sorted order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}
