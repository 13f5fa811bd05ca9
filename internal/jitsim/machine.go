package jitsim

import (
	"fmt"
	"sort"
	"strings"
)

// machine is the tiny register machine compiled code runs on. Its heap is a
// flat object pool (this package measures compilation, not collection — the
// real heap lives in internal/heap). Execution is pc-driven so branches are
// real control flow; interpreter fuel bounds taken backward branches, and
// because barrier pseudo-ops never touch registers, tier-0 and tier-1 code
// follow identical paths and consume identical fuel.
type machine struct {
	regs     [16]int64
	objects  [][]int64
	pc       int
	fuel     int
	tests    int64 // barrier tests executed
	barrier  int64 // barrier test-hit counter (tested word had the stale bit)
	coldWork int64 // modelled out-of-line barrier work
	trace    *traceState
}

// Result of executing a compiled method.
type Result struct {
	Regs        [16]int64
	BarrierHits int64
	// BarrierTests counts dynamic barrier-test executions; elision's win is
	// the oracle's count minus the tier-1 count.
	BarrierTests int64
	// Ops counts compiled ops executed (barrier pseudo-ops included): the
	// run's modelled cost, independent of the host's clock.
	Ops int64
}

// Trace is the checked-reference audit trail of an instrumented run: one
// canonical snapshot of the distinct base references dereferenced in each
// safepoint interval, plus the count of dereferences that were not covered
// by a barrier check (or black allocation) earlier in the same interval.
// Soundness demands Uncovered == 0 at every tier; equivalence demands
// tier-0 and tier-1 snapshots be identical.
type Trace struct {
	Snapshots []string
	Uncovered int64
}

// traceState is the per-run working state behind a Trace.
type traceState struct {
	checked map[int64]struct{} // references checked this interval
	derefed map[int64]struct{} // references dereferenced this interval
	out     *Trace
}

func newTraceState() *traceState {
	return &traceState{
		checked: make(map[int64]struct{}),
		derefed: make(map[int64]struct{}),
		out:     &Trace{},
	}
}

// check records a barrier test (or black allocation) of ref.
func (t *traceState) check(ref int64) {
	if t == nil {
		return
	}
	t.checked[ref] = struct{}{}
}

// deref records a load through ref and flags it if unchecked this interval.
func (t *traceState) deref(ref int64) {
	if t == nil {
		return
	}
	if _, ok := t.checked[ref]; !ok {
		t.out.Uncovered++
	}
	t.derefed[ref] = struct{}{}
}

// safepoint closes the current interval: snapshot the dereferenced set and
// clear both sets (references may go stale across this point).
func (t *traceState) safepoint() {
	if t == nil {
		return
	}
	vals := make([]int64, 0, len(t.derefed))
	for v := range t.derefed {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	var sb strings.Builder
	for i, v := range vals {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", v)
	}
	t.out.Snapshots = append(t.out.Snapshots, sb.String())
	t.checked = make(map[int64]struct{})
	t.derefed = make(map[int64]struct{})
}

// lower turns one IR op at absolute pc i into a closure. Branch targets
// arrive pre-resolved by flatten (target = i - B).
func lower(op Op, i int) instr {
	a, b, c := int(op.A)&15, op.B, int(op.C)&15
	switch op.Kind {
	case OpConst:
		return func(m *machine) { m.regs[a] = int64(b) }
	case OpArith:
		return func(m *machine) { m.regs[a] = m.regs[a]*31 + int64(b) }
	case OpAlloc:
		n := int(b)
		if n < 1 {
			n = 1
		}
		return func(m *machine) {
			m.trace.safepoint() // allocation is a GC point
			m.objects = append(m.objects, make([]int64, n))
			m.regs[a] = int64(len(m.objects) - 1)
			m.trace.check(m.regs[a]) // black-allocated: checked by construction
		}
	case OpLoadField:
		return func(m *machine) {
			m.trace.deref(m.regs[c])
			if o := m.obj(m.regs[c]); o != nil {
				m.regs[a] = o[fieldIndex(b, len(o))]
			}
		}
	case OpStoreField:
		return func(m *machine) {
			if o := m.obj(m.regs[a]); o != nil {
				o[fieldIndex(b, len(o))] = m.regs[c]
			}
		}
	case OpBranch:
		target := i - int(op.B)
		if target < 0 {
			target = 0
		}
		back := target <= i
		return func(m *machine) {
			if m.regs[a] == 0 {
				return
			}
			if back {
				if m.fuel <= 0 {
					return // out of fuel: fall through, loop terminates
				}
				m.fuel--
				m.trace.safepoint() // loop backedge is a GC poll
			}
			m.pc = target
		}
	case OpCall:
		return func(m *machine) {
			m.trace.safepoint() // calls are safepoints
			m.regs[a] ^= int64(b)
		}
	case opBarrierTest:
		return func(m *machine) {
			m.tests++
			if m.regs[c]&1 != 0 {
				m.barrier++
			}
			m.trace.check(m.regs[c])
		}
	case opBarrierCall:
		// The barrier body is semantically transparent to the program: it
		// only maintains runtime metadata. Model its cost without touching
		// program state.
		return func(m *machine) { m.coldWork++ }
	}
	return func(m *machine) {}
}

// fieldIndex wraps a (possibly negative) field immediate into the object.
func fieldIndex(b int32, n int) int {
	i := int(b) % n
	if i < 0 {
		i += n
	}
	return i
}

func (m *machine) obj(r int64) []int64 {
	if r < 0 || int(r) >= len(m.objects) {
		return nil
	}
	return m.objects[int(r)]
}

// defaultFuel bounds taken backward branches per run. It is deliberately
// modest: loop trip counts don't change what the static analysis proves,
// and both tiers consume fuel identically (barrier pseudo-ops never touch
// registers or fuel), so a bounded run is still a faithful equivalence
// witness.
const defaultFuel = 1 << 12

// Run executes the compiled method `reps` times and returns the final
// machine state.
func (cm *CompiledMethod) Run(reps int) Result {
	res, _ := cm.run(reps, defaultFuel, nil)
	return res
}

// RunTraced executes like Run but audits the checked-reference invariant,
// returning the per-safepoint-interval trace alongside the result.
func (cm *CompiledMethod) RunTraced(reps int) (Result, *Trace) {
	ts := newTraceState()
	res, _ := cm.run(reps, defaultFuel, ts)
	return res, ts.out
}

func (cm *CompiledMethod) run(reps, fuel int, ts *traceState) (Result, int) {
	m := &machine{fuel: fuel, trace: ts}
	var ops int64
	for r := 0; r < reps && m.fuel > 0; r++ {
		// Each invocation enters through a call safepoint: no barrier fact
		// survives from the previous invocation, matching the analysis's
		// empty entry state.
		m.trace.safepoint()
		m.pc = 0
		for m.pc < len(cm.code) {
			i := m.pc
			m.pc++
			ops++
			cm.code[i](m)
		}
	}
	m.trace.safepoint() // method exit closes the last interval
	return Result{Regs: m.regs, BarrierHits: m.barrier, BarrierTests: m.tests, Ops: ops}, m.fuel
}
