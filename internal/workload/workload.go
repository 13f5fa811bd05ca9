// Package workload contains Go analogues of every program in the paper's
// evaluation (§5–6): the ten leaking programs of Table 1, the manually
// fixed EclipseDiff variant from Figure 1, and a suite of non-leaking
// microbenchmarks standing in for DaCapo/SPECjvm98/pseudojbb in the
// overhead experiments (Figures 6–7).
//
// Each program allocates the same heap *shapes* and performs the same
// access *patterns* as its original: which data structures grow, which
// parts of them the program keeps touching (live) versus abandons (dead),
// and on what schedule rarely-used-but-live structures are revisited. Those
// three properties fully determine leak pruning's behaviour, so the
// analogues reproduce the paper's per-program outcomes without the original
// Java code.
package workload

import (
	"fmt"
	"sort"

	"leakpruning/internal/heap"
	"leakpruning/internal/vm"
)

// Program is one benchmark program run by the harness.
type Program interface {
	// Name is the identifier cmd/lp takes as -program (e.g. "eclipsediff").
	Name() string
	// Description summarizes the program and its leak in one line.
	Description() string
	// DefaultHeap is the simulated heap limit the paper's methodology
	// prescribes: about twice the memory the program needs when it does
	// not leak (§6).
	DefaultHeap() uint64
	// Setup defines classes and builds initial structures.
	Setup(t *vm.Thread)
	// Iterate performs one iteration of program work (the paper's unit of
	// progress) and reports whether the program finished naturally — only
	// short-running programs like Delaunay ever return true.
	Iterate(t *vm.Thread, iter int) bool
}

// Factory creates a fresh Program instance (programs are stateful and
// single-use).
type Factory func() Program

var registry = map[string]Factory{}
var leakNames []string

// DuplicateProgramError reports an attempt to register a program under a
// name that is already taken.
type DuplicateProgramError struct {
	Name string
}

func (e *DuplicateProgramError) Error() string {
	return fmt.Sprintf("workload: duplicate program %q", e.Name)
}

// Register adds a program factory under its name, rejecting duplicates with
// a *DuplicateProgramError. leak marks it as one of the Table 1 leaks (in
// paper order).
func Register(name string, leak bool, f Factory) error {
	if _, dup := registry[name]; dup {
		return &DuplicateProgramError{Name: name}
	}
	registry[name] = f
	if leak {
		leakNames = append(leakNames, name)
	}
	return nil
}

// register is the init-time registration path: a duplicate name here is a
// programmer error, so it panics with the typed error.
func register(name string, leak bool, f Factory) {
	if err := Register(name, leak, f); err != nil {
		panic(err)
	}
}

// New creates the named program.
func New(name string) (Program, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown program %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names lists every registered program.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// LeakNames lists the Table 1 leak programs in the paper's order.
func LeakNames() []string { return append([]string(nil), leakNames...) }

// Taxonomy names one of the structural leak families of the trace corpus
// (the classic leak taxonomy: how the program loses track of the memory,
// rather than which application exhibited it).
type Taxonomy string

const (
	// TaxCollection: elements logically removed from a growing collection
	// but physically retained.
	TaxCollection Taxonomy = "collection-mishandling"
	// TaxListener: observers registered and never deregistered.
	TaxListener Taxonomy = "listener-observer"
	// TaxCache: a memoizing cache with no eviction policy.
	TaxCache Taxonomy = "cache-without-eviction"
	// TaxThreadLocal: per-thread state that outlives the work it served.
	TaxThreadLocal Taxonomy = "thread-local"
	// TaxQueue: a bounded work queue whose completion log grows without
	// bound — the queue drains, the bookkeeping never does.
	TaxQueue Taxonomy = "unbounded-queue"
)

// Outcome is the expected end state of a corpus program under a policy.
type Outcome string

const (
	// OutcomeSurvives: the program runs to its iteration cap.
	OutcomeSurvives Outcome = "survives"
	// OutcomeOOM: the program exhausts memory.
	OutcomeOOM Outcome = "oom"
	// OutcomeTrap: a pruned reference is accessed (pruned-access death).
	OutcomeTrap Outcome = "trap"
)

// CorpusEntry describes one taxonomy corpus program and its expected
// per-policy outcomes (policy name → outcome), calibrated by the corpus
// outcome tests.
type CorpusEntry struct {
	Name     string
	Taxonomy Taxonomy
	Expected map[string]Outcome
}

var corpus []CorpusEntry

// Corpus lists the taxonomy corpus entries in registration order.
func Corpus() []CorpusEntry { return append([]CorpusEntry(nil), corpus...) }

// registerCorpus registers a corpus program (outside the Table 1 leak set)
// together with its taxonomy class and expected outcomes.
func registerCorpus(name string, tax Taxonomy, expected map[string]Outcome, f Factory) {
	register(name, false, f)
	corpus = append(corpus, CorpusEntry{Name: name, Taxonomy: tax, Expected: expected})
}

// held runs one iteration inside a single critical region of t
// (vm.Thread.Region), so the iteration's operations poll the stop flag
// instead of each entering and leaving a region of its own. Every program
// whose Iterate touches only its own Thread goes through it; mckoi and
// threadlocalleak drive other Threads from the same goroutine, which the
// Region contract forbids, and stay per-op. Setup stays per-op everywhere:
// it calls DefineClass and AddGlobal.
func held(t *vm.Thread, iter int, iterate func(*vm.Thread, int) bool) (done bool) {
	t.Region(func() { done = iterate(t, iter) })
	return done
}

// churn allocates n short-lived objects of the given class and drops them,
// modelling the transient allocation every managed program performs
// (iterators, boxing, scratch buffers). The temporaries are what ordinary
// collections reclaim while a leak ratchets the heap toward exhaustion —
// they are the reason full-heap collections happen repeatedly (and the
// pruning state machine gets to advance) before memory is truly gone.
func churn(t *vm.Thread, class heap.ClassID, n int) {
	t.InFrame(1, func(f *vm.Frame) {
		for i := 0; i < n; i++ {
			f.Set(0, t.New(class))
		}
	})
}
