// Package jitsim models the compiler side of §5: a small method IR with
// real control flow, a compiler that optionally expands every reference
// load into the read-barrier sequence, and an interpreter to execute the
// compiled code. The paper reports that inserting read barriers bloats the
// intermediate representation and thereby adds ~17% to compilation time
// and ~10% to code size; this package reproduces that experiment, and the
// interpreter shows the expansion is semantically transparent.
package jitsim

import "fmt"

// OpKind is one IR operation kind.
type OpKind uint8

const (
	// OpConst loads an immediate constant into register A (value B).
	OpConst OpKind = iota
	// OpArith computes A = A*31 + B with a cheap integer operation.
	OpArith
	// OpLoadField loads a reference field: A = heap[C].field[B]. C is the
	// base reference the conditional read barrier tests; A is the
	// destination. The compiler expands this into the read-barrier
	// sequence when barriers are enabled.
	OpLoadField
	// OpStoreField stores a reference field: heap[A].field[B] = C.
	OpStoreField
	// OpAlloc allocates an object with B fields into register A.
	OpAlloc
	// OpBranch jumps to op index i-B (i = the branch's own index) when
	// register A is non-zero. B > 0 is a backward branch: taking it costs
	// one unit of interpreter fuel. B < 0 is a forward branch.
	OpBranch
	// OpCall models a call that clobbers register A (A ^= B).
	OpCall

	// The pseudo-ops below exist only after barrier expansion.

	// opBarrierTest is the inline conditional test on the base reference in
	// register C (it mirrors OpLoadField's operand layout).
	opBarrierTest
	// opBarrierCall is the out-of-line call to the barrier body.
	opBarrierCall
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpConst:
		return "const"
	case OpArith:
		return "arith"
	case OpLoadField:
		return "loadfield"
	case OpStoreField:
		return "storefield"
	case OpAlloc:
		return "alloc"
	case OpBranch:
		return "branch"
	case OpCall:
		return "call"
	case opBarrierTest:
		return "barrier.test"
	case opBarrierCall:
		return "barrier.call"
	}
	return fmt.Sprintf("op(%d)", k)
}

// Op is one IR operation. A is the defined (or branch-condition) register,
// B an immediate (constant, field index, allocation size, branch offset),
// and C the used base-reference register for loads/stores.
type Op struct {
	Kind OpKind
	A, B int32
	C    int32
}

// Method is one compilation unit.
type Method struct {
	Name string
	Ops  []Op
}

// NumLoads counts the reference loads in the method (each is a barrier
// site when barriers are enabled).
func (m *Method) NumLoads() int {
	n := 0
	for _, op := range m.Ops {
		if op.Kind == OpLoadField {
			n++
		}
	}
	return n
}
