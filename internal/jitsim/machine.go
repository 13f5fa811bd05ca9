package jitsim

// machine is the tiny register machine compiled code runs on. Its heap is a
// flat object pool (this package measures compilation, not collection — the
// real heap lives in internal/heap). Execution is pc-driven so branches are
// real control flow; interpreter fuel bounds taken backward branches, and
// because barrier pseudo-ops never touch registers, code compiled with and
// without barriers follows identical paths and consumes identical fuel.
type machine struct {
	regs    [16]int64
	objects [][]int64
	pc      int
	fuel    int
	tests   int64 // barrier tests executed
}

// Result of executing a compiled method.
type Result struct {
	Regs [16]int64
	// BarrierTests counts dynamic barrier-test executions.
	BarrierTests int64
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
			m.objects = append(m.objects, make([]int64, n))
			m.regs[a] = int64(len(m.objects) - 1)
		}
	case OpLoadField:
		return func(m *machine) {
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
			}
			m.pc = target
		}
	case OpCall:
		return func(m *machine) { m.regs[a] ^= int64(b) }
	case opBarrierTest:
		return func(m *machine) { m.tests++ }
	}
	// opBarrierCall: the barrier body is semantically transparent to the
	// program. It only maintains runtime metadata, so it touches no
	// program state.
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
// modest: code compiled with and without barriers consumes fuel
// identically (barrier pseudo-ops never touch registers or fuel), so a
// bounded run is still a faithful equivalence witness.
const defaultFuel = 1 << 12

// Run executes the compiled method `reps` times and returns the final
// machine state.
func (cm *CompiledMethod) Run(reps int) Result {
	m := &machine{fuel: defaultFuel}
	for r := 0; r < reps && m.fuel > 0; r++ {
		m.pc = 0
		for m.pc < len(cm.code) {
			i := m.pc
			m.pc++
			cm.code[i](m)
		}
	}
	return Result{Regs: m.regs, BarrierTests: m.tests}
}
