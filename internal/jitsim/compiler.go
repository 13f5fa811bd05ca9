package jitsim

import "time"

// instr is one lowered instruction: a small closure over the machine state.
type instr func(*machine)

// CompiledMethod is the compiler's output.
type CompiledMethod struct {
	Name string
	// IRSize is the post-expansion, post-optimization IR length.
	IRSize int
	// CodeBytes is the modelled machine-code size (instruction count times
	// an average encoding width; barrier tests encode short, calls long).
	CodeBytes int
	code      []instr
}

// CompileStats reports one compilation's cost, the quantities §5's
// accompanying text measures.
type CompileStats struct {
	Method    string
	Duration  time.Duration
	IRSizeIn  int // ops before expansion
	IRSizeOut int // ops after barrier expansion + optimization
	CodeBytes int
	// BarrierSites is the number of barrier test/call pairs emitted.
	BarrierSites int
	// ScheduleCost is the modelled cost of the downstream scheduling pass —
	// the dependence count its quadratic window scan found. Barrier
	// expansion bloats the IR and therefore this number.
	ScheduleCost int
}

// Compiler lowers methods. The zero value compiles without barriers.
type Compiler struct {
	// InsertReadBarriers expands reference loads into the conditional
	// barrier sequence: the inline test plus the out-of-line call, as the
	// paper's compilers do ("the compilers insert only the conditional
	// test and a method call for the barrier's body", §5).
	InsertReadBarriers bool
}

// Compile lowers one method: barrier expansion of every reference load,
// then the optimization passes (whose cost scales with IR size — that is
// where barrier bloat turns into compile-time overhead), then code
// emission.
func (c *Compiler) Compile(m *Method) (*CompiledMethod, CompileStats) {
	start := time.Now()
	stats := CompileStats{Method: m.Name, IRSizeIn: len(m.Ops)}

	g := buildCFG(m.Ops)
	if c.InsertReadBarriers {
		stats.BarrierSites = g.expandBarriers()
	}
	// Local optimizations run per block: they change op counts, and branch
	// offsets are re-resolved from block lengths at flatten time.
	for _, b := range g.blocks {
		b.ops = eliminateDeadConsts(simplify(b.ops))
	}
	flat := g.flatten()
	// Modelled downstream pass over the (possibly bloated) IR.
	stats.ScheduleCost = scheduleCost(flat)

	cm := emit(m.Name, flat)
	stats.Duration = time.Since(start)
	stats.IRSizeOut = len(flat)
	stats.CodeBytes = cm.CodeBytes
	return cm, stats
}

// expandBarriers gives every reference load the test + out-of-line call
// pair. Returns the site count.
func (g *cfg) expandBarriers() int {
	sites := 0
	for _, b := range g.blocks {
		out := make([]Op, 0, len(b.ops)+len(b.ops)/4)
		for _, op := range b.ops {
			if op.Kind == OpLoadField {
				out = append(out,
					Op{Kind: opBarrierTest, A: op.A, B: op.B, C: op.C},
					Op{Kind: opBarrierCall, A: op.A, B: op.B, C: op.C})
				sites++
			}
			out = append(out, op)
		}
		b.ops = out
	}
	return sites
}

// simplify folds adjacent constant/arith pairs — a stand-in for the local
// optimizations whose work grows with IR length. Barrier pseudo-ops are
// only ever inserted before loads, so the foldable adjacencies are the
// same with and without barriers and folding never changes what the
// program computes.
func simplify(ir []Op) []Op {
	out := ir[:0:len(ir)]
	for i := 0; i < len(ir); i++ {
		if i+1 < len(ir) && ir[i].Kind == OpConst && ir[i+1].Kind == OpArith && ir[i].A == ir[i+1].A {
			// Fold const k; arith b into const k*31+b (the machine's arith
			// semantics), but only when the result fits the immediate.
			v := int64(ir[i].B)*31 + int64(ir[i+1].B)
			if int64(int32(v)) == v {
				out = append(out, Op{Kind: OpConst, A: ir[i].A, B: int32(v)})
				i++
				continue
			}
		}
		out = append(out, ir[i])
	}
	return out
}

// eliminateDeadConsts removes constants immediately overwritten by another
// constant to the same register.
func eliminateDeadConsts(ir []Op) []Op {
	out := ir[:0:len(ir)]
	for i := 0; i < len(ir); i++ {
		if i+1 < len(ir) && ir[i].Kind == OpConst && ir[i+1].Kind == OpConst && ir[i].A == ir[i+1].A {
			continue
		}
		out = append(out, ir[i])
	}
	return out
}

// scheduleCost models an instruction-scheduling pass: a quadratic-in-window
// dependence scan, the kind of downstream optimization whose cost the
// barrier-bloated IR inflates.
func scheduleCost(ir []Op) int {
	const window = 16
	deps := 0
	for i := range ir {
		hi := i + window
		if hi > len(ir) {
			hi = len(ir)
		}
		for j := i + 1; j < hi; j++ {
			if ir[i].A == ir[j].A || ir[i].A == ir[j].B {
				deps++
			}
		}
	}
	return deps
}

// encoding widths (modelled bytes per instruction kind).
func codeWidth(k OpKind) int {
	switch k {
	case opBarrierTest:
		return 2 // short test-and-branch
	case opBarrierCall:
		return 5 // call to the out-of-line body
	case OpCall:
		return 8
	case OpAlloc:
		return 12
	default:
		return 5
	}
}

// emit lowers the flattened IR to executable closures and models code
// size. Branch ops arrive with offsets already re-resolved against the
// final layout.
func emit(name string, flat []Op) *CompiledMethod {
	code := make([]instr, len(flat))
	bytes := 0
	for i, op := range flat {
		bytes += codeWidth(op.Kind)
		code[i] = lower(op, i)
	}
	return &CompiledMethod{Name: name, IRSize: len(flat), CodeBytes: bytes, code: code}
}
