package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// lp runs one command line in-process.
func lp(args ...string) (status int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	status = run(args, &out, &errOut)
	return status, out.String(), errOut.String()
}

func TestCommandLine(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		status int
		stdout string // substring expected on stdout
		stderr string // substring expected on stderr
	}{
		{"no command", nil, 2, "", "usage: lp"},
		{"unknown command", []string{"leakbench"}, 2, "", `unknown command "leakbench"`},
		{"unknown table", []string{"table", "4"}, 2, "", `unknown table "4"`},
		{"missing table", []string{"table", "-max-iters", "3"}, 2, "", "usage: lp"},
		{"unknown figure", []string{"fig", "5"}, 2, "", `unknown figure "5"`},
		{"unknown trace command", []string{"trace", "record"}, 2, "", `unknown trace command "record"`},
		{"unknown flag", []string{"run", "-iters", "3"}, 2, "", "flag provided but not defined"},
		{"stray argument", []string{"table", "1", "2"}, 2, "", `unexpected argument "2"`},
		{"no program", []string{"run"}, 2, "", "-program is required"},
		{"compile zero trials", []string{"compile", "-trials", "0"}, 2, "", "-trials must be at least 1, got 0"},
		{"fig 6 zero trials", []string{"fig", "6", "-iters", "5", "-trials", "0"}, 2, "", "must be at least 1, got 5 and 0"},
		{"fig 7 negative iters", []string{"fig", "7", "-iters", "-3"}, 2, "", "must be at least 1, got -3 and 5"},
		{"help", []string{"help"}, 0, "usage: lp", ""},

		{"unknown program", []string{"run", "-program", "nosuch"}, 1, "", `unknown program "nosuch"`},
		{"unknown policy", []string{"run", "-program", "listleak", "-policy", "nosuch"}, 1, "", `unknown policy "nosuch"`},
		{"melt+concurrent", []string{"run", "-program", "listleak", "-policy", "melt", "-mark-mode", "concurrent"},
			1, "", "vm: invalid option MarkMode+OffloadDisk"},
		{"missing trace", []string{"trace", "stat", "-i", filepath.Join(t.TempDir(), "none.trace")}, 1, "", "no such file"},

		{"list", []string{"list"}, 0, "eclipsediff", ""},
		{"run", []string{"run", "-program", "listleak", "-max-iters", "300"}, 0, "listleak/default: 300 iterations", ""},
		{"report off", []string{"run", "-program", "eclipsediff", "-policy", "off", "-max-iters", "200", "-report"},
			0, "terminated by memory exhaustion", ""},
		{"report melt", []string{"run", "-program", "listleak", "-policy", "melt", "-max-iters", "200", "-report"},
			0, "final live heap composition", ""},
		{"report default", []string{"run", "-program", "eclipsediff", "-max-iters", "200", "-report"},
			0, "ResourceCompareInput  DiffNode", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, stdout, stderr := lp(tc.args...)
			if status != tc.status {
				t.Errorf("exit status %d, want %d\nstdout: %s\nstderr: %s", status, tc.status, stdout, stderr)
			}
			if !strings.Contains(stdout, tc.stdout) {
				t.Errorf("stdout lacks %q:\n%s", tc.stdout, stdout)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr)
			}
			if strings.Contains(stderr, "goroutine ") {
				t.Errorf("stderr carries a goroutine dump:\n%s", stderr)
			}
		})
	}
}

// TestRecordReplayRoundTrip drives the trace substrate the way make
// trace-smoke does: a recording verifies structurally and replays ×1
// cycle-for-cycle identical to itself (listleak collects twice in 200
// iterations, so the equivalence is not vacuous).
func TestRecordReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	for _, step := range []struct {
		args   []string
		stdout string
	}{
		{[]string{"run", "-program", "listleak", "-max-iters", "200", "-record", path}, "recorded allocation trace"},
		{[]string{"trace", "verify", "-i", path}, "ok: "},
		{[]string{"trace", "stat", "-i", path}, "program      listleak"},
		{[]string{"trace", "replay", "-i", path, "-verify"}, " 2 cycles byte-identical to the recording"},
	} {
		status, stdout, stderr := lp(step.args...)
		if status != 0 || !strings.Contains(stdout, step.stdout) {
			t.Fatalf("lp %s: exit status %d, stdout lacks %q\nstdout: %s\nstderr: %s",
				strings.Join(step.args, " "), status, step.stdout, stdout, stderr)
		}
	}
}
