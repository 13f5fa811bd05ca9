package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// contractFile is BENCHMARK.json's exact shape.
type contractFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []contractWork   `json:"workloads"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractLayer  `json:"per_layer"`
}

type contractWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contractLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// wantContract builds BENCHMARK.json from the tables in this package.
func wantContract() contractFile {
	c := contractFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractWork{Name: w.Name, Why: w.Why})
	}
	for _, d := range endToEnd {
		c.EndToEnd = append(c.EndToEnd, contractMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, contractLayer{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return c
}

// TestContractMatchesTables keeps BENCHMARK.json and the metric tables one
// thing. UPDATE_CONTRACT=1 rewrites the file from the tables.
func TestContractMatchesTables(t *testing.T) {
	const path = "../BENCHMARK.json"
	want, err := json.MarshalIndent(wantContract(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if os.Getenv("UPDATE_CONTRACT") == "1" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is out of date with metrics.go / run.go; rerun with UPDATE_CONTRACT=1", path)
	}
}

// TestContractLimits checks the tables against the limits the driver refuses
// a file for.
func TestContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, d metricDef) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("%s metric name %q is malformed or reused", kind, d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check("end-to-end", d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		check("per-layer", d)
		if d.Moves == "" || d.What == "" {
			t.Errorf("%s: every per-layer metric says what it is and what it should move", d.Name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or reused", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
}
