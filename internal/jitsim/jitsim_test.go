package jitsim

import (
	"testing"
	"testing/quick"
)

func TestCorpusDeterministic(t *testing.T) {
	a := Corpus("bench", 10, 50)
	b := Corpus("bench", 10, 50)
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("corpus sizes %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Ops) != len(b[i].Ops) {
			t.Fatal("corpus not deterministic")
		}
		for j := range a[i].Ops {
			if a[i].Ops[j] != b[i].Ops[j] {
				t.Fatal("ops differ between identical corpora")
			}
		}
	}
	c := Corpus("other", 10, 50)
	same := true
	for j := range a[0].Ops {
		if a[0].Ops[j] != c[0].Ops[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different benchmarks produced identical methods")
	}
}

func TestBarrierExpansionCounts(t *testing.T) {
	m := &Method{Name: "m", Ops: []Op{
		{Kind: OpConst, A: 0, B: 1},
		{Kind: OpLoadField, A: 0, B: 0},
		{Kind: OpArith, A: 1, B: 2},
		{Kind: OpLoadField, A: 1, B: 1},
	}}
	if m.NumLoads() != 2 {
		t.Fatalf("NumLoads = %d", m.NumLoads())
	}
	var c Compiler
	_, plain := c.Compile(m)
	if plain.BarrierSites != 0 {
		t.Fatal("barrier sites without insertion")
	}
	c.InsertReadBarriers = true
	cm, st := c.Compile(m)
	if st.BarrierSites != 2 {
		t.Fatalf("barrier sites = %d", st.BarrierSites)
	}
	// Each load gains a test and a call.
	if st.IRSizeOut != st.IRSizeIn+2*st.BarrierSites {
		t.Fatalf("IR %d -> %d with %d sites", st.IRSizeIn, st.IRSizeOut, st.BarrierSites)
	}
	if cm.CodeBytes <= 0 || cm.IRSize != st.IRSizeOut {
		t.Fatalf("compiled method %+v", cm)
	}
}

func TestSimplifyFoldsConstArith(t *testing.T) {
	ir := []Op{
		{Kind: OpConst, A: 3, B: 10},
		{Kind: OpArith, A: 3, B: 5},
		{Kind: OpConst, A: 1, B: 1},
	}
	out := simplify(append([]Op(nil), ir...))
	if len(out) != 2 {
		t.Fatalf("simplify kept %d ops", len(out))
	}
	if out[0].Kind != OpConst || out[0].B != 10*31+5 {
		t.Fatalf("folded op = %+v", out[0])
	}
}

func TestEliminateDeadConsts(t *testing.T) {
	ir := []Op{
		{Kind: OpConst, A: 2, B: 1},
		{Kind: OpConst, A: 2, B: 9}, // overwrites the first
		{Kind: OpConst, A: 3, B: 4},
	}
	out := eliminateDeadConsts(append([]Op(nil), ir...))
	if len(out) != 2 {
		t.Fatalf("DCE kept %d ops", len(out))
	}
	if out[0].B != 9 {
		t.Fatalf("wrong const survived: %+v", out[0])
	}
}

func TestCodeSizeOverheadNearTenPercent(t *testing.T) {
	corpus := Corpus("size", 100, 300)
	plain := CompileCorpus("size", &Compiler{}, corpus)
	barrier := CompileCorpus("size", &Compiler{InsertReadBarriers: true}, corpus)
	ratio := float64(barrier.CodeBytes) / float64(plain.CodeBytes)
	if ratio < 1.05 || ratio > 1.18 {
		t.Fatalf("code-size ratio %.3f outside the paper's ~10%% band", ratio)
	}
	if barrier.IRSizeOut <= plain.IRSizeOut {
		t.Fatal("barrier insertion must bloat the IR")
	}
}

func TestMachineExecution(t *testing.T) {
	m := &Method{Name: "exec", Ops: []Op{
		{Kind: OpConst, A: 4, B: 9},            // r4 = 9
		{Kind: OpAlloc, A: 1, B: 4},            // r1 = new object (4 fields)
		{Kind: OpStoreField, A: 1, B: 2, C: 4}, // heap[r1].2 = r4
		{Kind: OpLoadField, A: 3, B: 2, C: 1},  // r3 = heap[r1].2
		{Kind: OpConst, A: 2, B: 7},
		{Kind: OpArith, A: 2, B: 3}, // r2 = 7*31+3
	}}
	var c Compiler
	cm, _ := c.Compile(m)
	res := cm.Run(1)
	if res.Regs[2] != 7*31+3 {
		t.Fatalf("r2 = %d", res.Regs[2])
	}
	if res.Regs[3] != 9 {
		t.Fatalf("r3 = %d, want the stored field value 9", res.Regs[3])
	}
	// Barrier-compiled code computes the same results.
	c.InsertReadBarriers = true
	cmB, _ := c.Compile(m)
	resB := cmB.Run(1)
	if resB.Regs[2] != res.Regs[2] {
		t.Fatal("barrier compilation changed program results")
	}
}

// TestCompileEquivalenceQuick: for random methods, barrier-compiled code
// computes the same register state as plain-compiled code (barrier ops are
// semantically transparent).
func TestCompileEquivalenceQuick(t *testing.T) {
	prop := func(seed uint16) bool {
		corpus := Corpus(string(rune('a'+seed%26))+"q", 1, 60)
		m := corpus[0]
		var plain, withB Compiler
		withB.InsertReadBarriers = true
		cm1, _ := plain.Compile(m)
		cm2, _ := withB.Compile(m)
		return cm1.Run(3).Regs == cm2.Run(3).Regs
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{
		OpConst: "const", OpLoadField: "loadfield", opBarrierCall: "barrier.call",
	} {
		if k.String() != want {
			t.Fatalf("OpKind(%d).String() = %q", k, k.String())
		}
	}
}

func TestReplayMethodology(t *testing.T) {
	corpus := Corpus("replay", 30, 200)
	res := Replay(&Compiler{InsertReadBarriers: true}, corpus, 3)
	if res.CompileTime <= 0 {
		t.Fatal("no compile time recorded")
	}
	if res.FirstIteration < res.CompileTime {
		t.Fatal("the first iteration includes compilation")
	}
	if res.SecondIteration <= 0 {
		t.Fatal("second iteration did not run")
	}
	if res.BarrierSites == 0 {
		t.Fatal("barrier sites not counted")
	}
	// Steady state excludes compilation: it must be cheaper than the first
	// iteration (which is second-iteration work plus all compilation).
	// Compared in modelled work, not wall time: two timings a few hundred
	// microseconds long invert whenever the scheduler preempts the second.
	if res.SecondIterationWork <= 0 || res.SecondIterationWork >= res.FirstIterationWork {
		t.Fatalf("second iteration (%d work units) not cheaper than first (%d)",
			res.SecondIterationWork, res.FirstIterationWork)
	}
}
