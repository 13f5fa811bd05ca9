package trace

import (
	"bytes"
	"errors"
	"testing"
)

// sampleTraceBytes records a representative sequence touching every event
// kind and returns the serialized trace.
func sampleTraceBytes(t testing.TB) []byte {
	t.Helper()
	rec := NewRecorder()
	rec.SetMeta(Meta{
		Program: "sample", Policy: "default",
		MarkMode: "stw", BarrierVariant: "conditional",
		HeapLimit: 1 << 20, Flags: FlagHashLiveSet,
	})
	rec.SetFingerprint(0xdeadbeef)
	rec.DefineClass(1, "Node", 2, 16)
	rec.DefineClass(2, "Blob", 0, 256)
	rec.DefineClass(7, "out-of-order", 0, 0) // not ID 3: ignored
	rec.AddGlobal(0)
	rec.AddGlobal(2)
	s1 := rec.NewStream("main")
	s2 := rec.NewStream("worker")

	s1.Push(4)
	s1.Alloc(1, 5)
	s1.AllocShaped(2, 6, 0, 512)
	s1.Store(5, 0, 6)
	s1.Load(5, 0)
	s1.StoreGlobal(0, 5)
	s1.LoadGlobal(2)
	s1.FrameSet(0, 3, 6)
	s1.Iter(1)
	s2.Alloc(1, 9)
	s2.AllocFail(2)
	s2.AllocFailShaped(1, 8, 0)
	rec.DrainAll()
	rec.Free(6)
	rec.Free(5)
	rec.GCCycle(GCInfo{Index: 1, Mode: 2, State: 3, BytesLive: 4096,
		Candidates: 7, Pruned: 3, Degraded: true, LiveHash: 0xabcdef})
	s1.Pop()
	s1.Close()
	s2.Close()

	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// decodeAll decodes every event, failing the test on a decode error.
func decodeAll(t *testing.T, tr *Trace) []Event {
	t.Helper()
	it := tr.Iter()
	var out []Event
	var ev Event
	for {
		ok, err := it.Next(&ev)
		if err != nil {
			t.Fatalf("decode after %d events: %v", len(out), err)
		}
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	tr, err := ReadTrace(sampleTraceBytes(t))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	want := Meta{
		Program: "sample", Policy: "default",
		MarkMode: "stw", BarrierVariant: "conditional",
		HeapLimit: 1 << 20, Flags: FlagHashLiveSet, Fingerprint: 0xdeadbeef,
	}
	if tr.Meta != want {
		t.Errorf("meta = %+v, want %+v", tr.Meta, want)
	}
	wantClasses := []ClassDef{{"Node", 2, 16}, {"Blob", 0, 256}}
	if len(tr.Classes) != len(wantClasses) {
		t.Fatalf("classes = %v, want %v", tr.Classes, wantClasses)
	}
	for i, c := range wantClasses {
		if tr.Classes[i] != c {
			t.Errorf("class %d = %+v, want %+v", i+1, tr.Classes[i], c)
		}
	}
	if tr.Globals != 3 {
		t.Errorf("globals = %d, want 3", tr.Globals)
	}
	if len(tr.Threads) != 2 || tr.Threads[0] != "main" || tr.Threads[1] != "worker" {
		t.Errorf("threads = %v, want [main worker]", tr.Threads)
	}
}

// TestReservedHeaderSlot: traces written before the world-lock option was
// removed carry its name in the header's third string slot. They must parse
// to the same metadata and the same events as a current trace.
func TestReservedHeaderSlot(t *testing.T) {
	data := sampleTraceBytes(t)
	// magic, version, program, policy, then the reserved (empty) string.
	off := len(magic) + 1
	for i := 0; i < 2; i++ {
		_, next, err := readString(data, off)
		if err != nil {
			t.Fatal(err)
		}
		off = next
	}
	if data[off] != 0 {
		t.Fatalf("reserved slot is not an empty string: length byte %d", data[off])
	}
	old := appendString(append([]byte(nil), data[:off]...), "rwmutex")
	old = append(old, data[off+1:]...)

	cur, err := ReadTrace(data)
	if err != nil {
		t.Fatalf("ReadTrace(current): %v", err)
	}
	got, err := ReadTrace(old)
	if err != nil {
		t.Fatalf("ReadTrace(old header): %v", err)
	}
	if got.Meta != cur.Meta {
		t.Errorf("meta = %+v, want %+v", got.Meta, cur.Meta)
	}
	gotEvs, wantEvs := decodeAll(t, got), decodeAll(t, cur)
	if len(gotEvs) != len(wantEvs) {
		t.Fatalf("old-header trace decodes to %d events, want %d", len(gotEvs), len(wantEvs))
	}
	for i := range wantEvs {
		if gotEvs[i] != wantEvs[i] {
			t.Errorf("event %d = %+v, want %+v", i, gotEvs[i], wantEvs[i])
		}
	}
}

func TestEventRoundTrip(t *testing.T) {
	tr, err := ReadTrace(sampleTraceBytes(t))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	evs := decodeAll(t, tr)

	// File order: DrainAll flushes stream 1, then 2 (gc buffer empty);
	// GCCycle flushes stream 0; each Close flushes its own stream.
	type w struct {
		kind          Kind
		stream        int
		class         uint32
		obj, val      uint64
		slot, arg     int
		refS, scalarB int
	}
	d := -1 // "class default" shape
	want := []w{
		{EvPush, 1, 0, 0, 0, 0, 4, d, d},
		{EvAlloc, 1, 1, 5, 0, 0, 0, d, d},
		{EvAllocShaped, 1, 2, 6, 0, 0, 0, 0, 512},
		{EvStore, 1, 0, 5, 6, 0, 0, d, d},
		{EvLoad, 1, 0, 5, 0, 0, 0, d, d},
		{EvStoreGlobal, 1, 0, 0, 5, 0, 0, d, d},
		{EvLoadGlobal, 1, 0, 0, 0, 0, 2, d, d},
		{EvFrameSet, 1, 0, 0, 6, 3, 0, d, d},
		{EvIter, 1, 0, 0, 0, 0, 1, d, d},
		{EvAlloc, 2, 1, 9, 0, 0, 0, d, d},
		{EvAllocFail, 2, 2, 0, 0, 0, 0, d, d},
		{EvAllocFailShaped, 2, 1, 0, 0, 0, 0, 8, 0},
		{EvFree, 0, 0, 6, 0, 0, 0, d, d},
		{EvFree, 0, 0, 5, 0, 0, 0, d, d},
		{EvGCCycle, 0, 0, 0, 0, 0, 0, d, d},
		{EvPop, 1, 0, 0, 0, 0, 0, d, d},
		{EvThreadEnd, 1, 0, 0, 0, 0, 0, d, d},
		{EvThreadEnd, 2, 0, 0, 0, 0, 0, d, d},
	}
	if len(evs) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(evs), len(want))
	}
	for i, ww := range want {
		ev := evs[i]
		got := w{ev.Kind, ev.Stream, ev.Class, ev.Obj, ev.Val, ev.Slot, ev.Arg, ev.RefSlots, ev.ScalarBytes}
		if got != ww {
			t.Errorf("event %d (%s): %+v, want %+v", i, ev.Kind, got, ww)
		}
	}
	gc := evs[14].GC
	wantGC := GCInfo{Index: 1, Mode: 2, State: 3, BytesLive: 4096,
		Candidates: 7, Pruned: 3, Degraded: true, LiveHash: 0xabcdef}
	if gc != wantGC {
		t.Errorf("gc cycle = %+v, want %+v", gc, wantGC)
	}
}

func TestStats(t *testing.T) {
	tr, err := ReadTrace(sampleTraceBytes(t))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Events != 18 {
		t.Errorf("events = %d, want 18", st.Events)
	}
	if len(st.Cycles) != 1 || st.Cycles[0].LiveHash != 0xabcdef {
		t.Errorf("cycles = %+v, want one with LiveHash abcdef", st.Cycles)
	}
	if st.MaxIter != 1 {
		t.Errorf("max iter = %d, want 1", st.MaxIter)
	}
	if st.ByKind[EvAlloc] != 2 || st.ByKind[EvFree] != 2 || st.ByKind[EvThreadEnd] != 2 {
		t.Errorf("kind counts off: %v", st.ByKind)
	}
}

// TestEncodeDeterminism: the same event sequence encodes to identical bytes
// on every run (no map-order or clock dependence outside EvIter/EvGCCycle
// timing deltas, which this sequence avoids).
func TestEncodeDeterminism(t *testing.T) {
	build := func() []byte {
		rec := NewRecorder()
		rec.SetMeta(Meta{Program: "det", HeapLimit: 4096})
		rec.DefineClass(1, "A", 1, 8)
		s := rec.NewStream("main")
		s.Alloc(1, 100)
		s.Store(100, 0, 0)
		s.Load(100, 0)
		rec.DrainAll()
		rec.Free(100)
		s.Close()
		var buf bytes.Buffer
		rec.WriteTo(&buf)
		return buf.Bytes()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical sequences encoded differently:\n%x\n%x", a, b)
	}
}

// assertTyped fails unless err is one of the package's typed decode errors.
func assertTyped(t *testing.T, err error) {
	t.Helper()
	var ce *CorruptError
	var te *TruncatedError
	if errors.Is(err, ErrBadMagic) || errors.Is(err, ErrBadVersion) ||
		errors.As(err, &ce) || errors.As(err, &te) {
		return
	}
	t.Fatalf("untyped decode error: %v", err)
}

// emptyHeader serializes a trace with one thread and no events, as a base
// for appending crafted bodies.
func emptyHeader(t *testing.T) []byte {
	t.Helper()
	rec := NewRecorder()
	rec.SetMeta(Meta{Program: "crafted"})
	rec.DefineClass(1, "A", 1, 8)
	rec.NewStream("main")
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// block appends a crafted [stream][len][payload] block.
func block(h []byte, stream uint64, payload ...byte) []byte {
	out := append([]byte(nil), h...)
	out = appendUvarint(out, stream)
	out = appendUvarint(out, uint64(len(payload)))
	return append(out, payload...)
}

func TestCorruptInputsTyped(t *testing.T) {
	h := emptyHeader(t)
	longVarint := bytes.Repeat([]byte{0xff}, 10)
	cases := []struct {
		name string
		data []byte
		want any // pointer to target error type, or sentinel error
	}{
		{"empty", nil, ErrBadMagic},
		{"not-a-trace", []byte("NOTATRACEFILE"), ErrBadMagic},
		{"bad-version", append(append([]byte(nil), magic[:]...), 99), ErrBadVersion},
		{"header-cut", h[:len(magic)+3], &TruncatedError{}},
		{"huge-string", appendUvarint(append(append([]byte(nil), magic[:]...), 1), 1<<20), &CorruptError{}},
		{"varint-overflow", append(append(append([]byte(nil), magic[:]...), 1), longVarint...), &CorruptError{}},
		{"block-stream-range", block(h, 5, byte(EvPop)), &CorruptError{}},
		{"block-len-overrun", append(append(append([]byte(nil), h...), 1, 10), byte(EvPop)), &TruncatedError{}},
		{"empty-block", append(append([]byte(nil), h...), 1, 0), &CorruptError{}},
		{"zero-kind", block(h, 1, 0), &CorruptError{}},
		{"unknown-kind", block(h, 1, byte(kindMax)), &CorruptError{}},
		{"free-on-mutator", block(h, 1, byte(EvFree), 0), &CorruptError{}},
		{"gc-on-mutator", block(h, 1, byte(EvGCCycle), 0), &CorruptError{}},
		{"event-past-block", block(h, 1, byte(EvAlloc)), &CorruptError{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := ReadTrace(tc.data)
			if err == nil {
				_, err = tr.Validate()
			}
			if err == nil {
				t.Fatal("corrupt input decoded cleanly")
			}
			assertTyped(t, err)
			switch want := tc.want.(type) {
			case *TruncatedError:
				var te *TruncatedError
				if !errors.As(err, &te) {
					t.Errorf("err = %v (%T), want TruncatedError", err, err)
				}
			case *CorruptError:
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Errorf("err = %v (%T), want CorruptError", err, err)
				}
			case error:
				if !errors.Is(err, want) {
					t.Errorf("err = %v, want %v", err, want)
				}
			}
		})
	}
}

// TestTruncationSweep: every prefix of a valid trace either decodes cleanly
// (a cut at a block boundary just loses the tail) or returns a typed
// error — never a panic.
func TestTruncationSweep(t *testing.T) {
	data := sampleTraceBytes(t)
	for i := 0; i < len(data); i++ {
		tr, err := ReadTrace(data[:i])
		if err == nil {
			_, err = tr.Validate()
		}
		if err != nil {
			assertTyped(t, err)
		}
	}
}

// TestNilSafety: a nil recorder/stream is a no-op on every method — the
// contract that keeps the VM's record sites unconditional.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	r.SetMeta(Meta{})
	r.SetFingerprint(1)
	r.DefineClass(1, "A", 0, 0)
	r.AddGlobal(0)
	r.DrainAll()
	r.Free(1)
	r.GCCycle(GCInfo{})
	if n, err := r.WriteTo(&bytes.Buffer{}); n != 0 || err != nil {
		t.Errorf("nil WriteTo = (%d, %v)", n, err)
	}
	s := r.NewStream("x")
	if s != nil {
		t.Fatalf("nil recorder returned non-nil stream")
	}
	s.Alloc(1, 1)
	s.AllocShaped(1, 1, 0, 0)
	s.AllocFail(1)
	s.AllocFailShaped(1, 0, 0)
	s.Load(1, 0)
	s.Store(1, 0, 0)
	s.LoadGlobal(0)
	s.StoreGlobal(0, 0)
	s.Push(1)
	s.Pop()
	s.FrameSet(0, 0, 0)
	s.Iter(0)
	s.Close()
}
