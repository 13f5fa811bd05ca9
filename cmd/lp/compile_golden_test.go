package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/compile.golden from this build")

// TestCompileColumnsGolden pins the deterministic columns of lp compile:
// per benchmark row (and the geomean row) the name, the code-size overhead
// and the barrier-site count. Compile time is wall clock and left out.
func TestCompileColumnsGolden(t *testing.T) {
	status, stdout, stderr := lp("compile", "-trials", "1")
	if status != 0 {
		t.Fatalf("lp compile: exit status %d\nstderr: %s", status, stderr)
	}
	var b strings.Builder
	rows := false
	for _, line := range strings.Split(stdout, "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && f[0] == "Benchmark" {
			rows = true
			continue
		}
		if !rows || len(f) < 3 {
			continue
		}
		// name, compile time %, code size %[, barrier sites]
		b.WriteString(strings.Join(append([]string{f[0]}, f[2:]...), " ") + "\n")
	}
	if !rows {
		t.Fatalf("lp compile printed no table:\n%s", stdout)
	}
	text := b.String()
	path := filepath.Join("testdata", "compile.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		t.Fatalf("lp compile columns differ from %s:\ngot:\n%swant:\n%s", path, text, want)
	}
}
