package jitsim

// Control-flow graph construction. Branch offsets in the source IR are in
// source-op units; every later phase (barrier expansion, local
// optimization, emission) changes op counts, so the compiler works on basic
// blocks with branch targets held as block indices and re-resolves concrete
// instruction offsets only at layout time.

// block is one basic block: straight-line ops, terminated either by the
// method end, by the op before a leader, or by an OpBranch (which is the
// block's last op).
type block struct {
	ops []Op
	// branchTarget is the block index a terminating OpBranch jumps to
	// (len(blocks) = exit); -1 when the block does not end in a branch.
	branchTarget int
}

// cfg is the block-structured method body.
type cfg struct {
	blocks []*block
}

// branchTargetIndex resolves the op-level target of a branch at index i:
// target = i - B, clamped into [0, len]; len means "branch off the end"
// (treated as method exit).
func branchTargetIndex(i int, op Op, n int) int {
	t := i - int(op.B)
	if t < 0 {
		t = 0
	}
	if t > n {
		t = n
	}
	return t
}

// buildCFG splits a method's linear ops into basic blocks.
func buildCFG(ops []Op) *cfg {
	n := len(ops)
	leader := make([]bool, n+1)
	leader[0] = true
	for i, op := range ops {
		if op.Kind == OpBranch {
			leader[branchTargetIndex(i, op, n)] = true
			if i+1 <= n {
				leader[i+1] = true
			}
		}
	}
	// Map op index -> block index.
	blockOf := make([]int, n+1)
	nb := 0
	for i := 0; i <= n; i++ {
		if i < n && leader[i] {
			nb++
		}
		blockOf[i] = nb - 1
	}
	blockOf[n] = nb // exit sentinel

	g := &cfg{blocks: make([]*block, nb)}
	for i := range g.blocks {
		g.blocks[i] = &block{branchTarget: -1}
	}
	bi := -1
	for i, op := range ops {
		if leader[i] {
			bi++
		}
		g.blocks[bi].ops = append(g.blocks[bi].ops, op)
		if op.Kind == OpBranch {
			g.blocks[bi].branchTarget = blockOf[branchTargetIndex(i, op, n)]
		}
	}
	return g
}

// flatten lays the blocks back out as linear IR, recomputing each
// terminating branch's op-level offset from the post-transformation block
// lengths. The returned branch ops carry their resolved absolute target in
// B as a *negative-relative* encoding identical to the source form:
// target = i - B.
func (g *cfg) flatten() []Op {
	starts := make([]int, len(g.blocks)+1)
	total := 0
	for i, b := range g.blocks {
		starts[i] = total
		total += len(b.ops)
	}
	starts[len(g.blocks)] = total

	out := make([]Op, 0, total)
	for bi, b := range g.blocks {
		base := starts[bi]
		for oi, op := range b.ops {
			if op.Kind == OpBranch && oi == len(b.ops)-1 && b.branchTarget >= 0 {
				i := base + oi
				op.B = int32(i - starts[b.branchTarget])
			}
			out = append(out, op)
		}
	}
	return out
}
