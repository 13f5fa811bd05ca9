package vm

import (
	"bytes"
	"strings"
	"testing"

	"leakpruning/internal/core"
)

func TestGCLogFullAndPrune(t *testing.T) {
	var buf bytes.Buffer
	v := New(Options{
		HeapLimit:      256 << 10,
		EnableBarriers: true,
		GCWorkers:      1,
		Policy:         core.DefaultPolicy{},
		GCLog:          &buf,
	})
	holder := v.DefineClass("Holder", 2, 0)
	payload := v.DefineClass("Payload", 0, 2048)
	scratch := v.DefineClass("Scratch", 0, 64)
	g := v.AddGlobal()
	err := v.RunThread("main", func(th *Thread) {
		for i := 0; i < 800; i++ {
			th.Scope(func() {
				h := th.New(holder)
				th.Store(h, 0, th.New(payload))
				th.Store(h, 1, th.LoadGlobal(g))
				th.StoreGlobal(g, h)
				for j := 0; j < 4; j++ {
					th.New(scratch)
				}
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	log := buf.String()
	for _, want := range []string{"[gc 1 normal]", " select] ", " prune] ", "candidates ", "pruned "} {
		if !strings.Contains(log, want) {
			t.Fatalf("GC log missing %q:\n%s", want, firstLines(log, 20))
		}
	}
}

func TestFmtBytes(t *testing.T) {
	for in, want := range map[uint64]string{
		512:     "512B",
		2048:    "2.0KB",
		3 << 20: "3.0MB",
		1536:    "1.5KB",
	} {
		if got := fmtBytes(in); got != want {
			t.Fatalf("fmtBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
