package jitsim

import (
	"fmt"
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
	if resB.Regs != res.Regs {
		t.Fatal("barrier compilation changed program results")
	}
	if res.BarrierTests != 0 || resB.BarrierTests != 1 {
		t.Fatalf("barrier tests executed: %d plain, %d with barriers; want 0 and 1",
			res.BarrierTests, resB.BarrierTests)
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

// TestScheduleCostRecorded: scheduleCost's result reaches CompileStats,
// and barrier expansion (more IR) increases it.
func TestScheduleCostRecorded(t *testing.T) {
	corpus := Corpus("schedcost", 20, 200)
	plain := CompileCorpus("schedcost", &Compiler{}, corpus)
	barrier := CompileCorpus("schedcost", &Compiler{InsertReadBarriers: true}, corpus)
	if plain.ScheduleCost <= 0 {
		t.Fatal("ScheduleCost not recorded")
	}
	if barrier.ScheduleCost <= plain.ScheduleCost {
		t.Fatalf("barrier expansion must increase the modelled scheduling cost: %d vs %d",
			barrier.ScheduleCost, plain.ScheduleCost)
	}
}

// decodeMethod turns fuzz bytes into a bounded method: each 4-byte chunk
// is one op (kind, A, B-as-signed-byte, C), capped at 96 ops. Branch
// offsets are small signed values, so the decoder reaches backward loops,
// forward diamonds, self-branches, and degenerate clamped targets.
func decodeMethod(data []byte) *Method {
	m := &Method{Name: "fuzz"}
	for i := 0; i+4 <= len(data) && len(m.Ops) < 96; i += 4 {
		k := OpKind(data[i] % 7)
		op := Op{
			Kind: k,
			A:    int32(data[i+1] & 15),
			B:    int32(int8(data[i+2])),
			C:    int32(data[i+3] & 15),
		}
		if k == OpAlloc {
			op.B = op.B&7 + 1
		}
		m.Ops = append(m.Ops, op)
	}
	return m
}

// FuzzCompile is the adversarial twin of TestCompileEquivalenceQuick: for
// arbitrary methods, barrier expansion must emit one pair per load and
// leave execution byte-for-byte what the plain compile computes.
func FuzzCompile(f *testing.F) {
	// Seed with generated methods, encoded through the same decoder the
	// fuzzer uses.
	encode := func(m *Method) []byte {
		var out []byte
		for _, op := range m.Ops {
			b := min(max(op.B, -128), 127)
			out = append(out, byte(op.Kind), byte(op.A&15), byte(int8(b)), byte(op.C&15))
		}
		return out
	}
	for _, m := range Corpus("fuzzseed", 5, 60) {
		f.Add(encode(m))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m := decodeMethod(data)
		if len(m.Ops) == 0 {
			return
		}
		cmPlain, _ := (&Compiler{}).Compile(m)
		cmBarrier, st := (&Compiler{InsertReadBarriers: true}).Compile(m)
		if st.BarrierSites != m.NumLoads() {
			t.Fatalf("emitted %d barrier pairs for %d loads", st.BarrierSites, m.NumLoads())
		}
		plain, barrier := cmPlain.Run(2), cmBarrier.Run(2)
		if plain.Regs != barrier.Regs {
			t.Fatalf("execution diverged:\n ops     %v\n plain   %v\n barrier %v", dumpOps(m), plain.Regs, barrier.Regs)
		}
	})
}

func dumpOps(m *Method) string {
	s := ""
	for i, op := range m.Ops {
		s += fmt.Sprintf("%3d: %s A=%d B=%d C=%d\n", i, op.Kind, op.A, op.B, op.C)
	}
	return s
}
