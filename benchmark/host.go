package main

import (
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// cpuMs returns the process's user+sys CPU time so far in milliseconds.
func cpuMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// canarySteps sizes the noise canary: a fixed LCG spin of about 60 ms on the
// 2-vCPU box the benchmark was sized on. (The issue's 400 M steps take 570 ms
// there; ten of them per run would not fit the contract's run budget.)
const canarySteps = 40_000_000

var canarySink uint64

// canary times one fixed spin loop of canarySteps/scale steps. It touches no
// memory and makes no calls, so its run-to-run variation is the host's (steal
// time, frequency), not the program's.
func canary(scale int) float64 {
	steps := canarySteps / scale
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < steps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	canarySink += x
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// canaryRounds is how many spins run before and again after a workload.
const canaryRounds = 5

// noisySpread is the canary spread above which a run is marked noisy.
const noisySpread = 0.15

func canarySamples(scale int) []float64 {
	out := make([]float64, canaryRounds)
	for i := range out {
		out[i] = canary(scale)
	}
	return out
}

// canarySummary reduces the before+after samples to (p50, spread).
func canarySummary(samples []float64) (p50, spread float64) {
	s := summarize(samples, len(samples))
	if s.Median == 0 {
		return 0, 0
	}
	return s.Median, (s.Max - s.Min) / s.Median
}

// goRuntimeStats snapshots the Go runtime's own allocation and collection
// counters; the difference of two snapshots is the window's host-side cost.
type goRuntimeStats struct {
	allocMB  float64
	gcCycles float64
	pauseMs  float64
}

func readGoRuntime() goRuntimeStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goRuntimeStats{
		allocMB:  float64(m.TotalAlloc) / (1 << 20),
		gcCycles: float64(m.NumGC),
		pauseMs:  float64(m.PauseTotalNs) / 1e6,
	}
}

func (a goRuntimeStats) minus(b goRuntimeStats) goRuntimeStats {
	return goRuntimeStats{a.allocMB - b.allocMB, a.gcCycles - b.gcCycles, a.pauseMs - b.pauseMs}
}

// Environment is stored beside every result set: a number without its
// machine is not comparable.
type Environment struct {
	NumCPU     int        `json:"num_cpu"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	GitCommit  string     `json:"git_commit"`
	Kernel     string     `json:"kernel"`
	Clients    int        `json:"clients"`
	LoadBefore [3]float64 `json:"loadavg_before"`
	LoadAfter  [3]float64 `json:"loadavg_after"`
}

func loadAvg() [3]float64 {
	var si syscall.Sysinfo_t
	var out [3]float64
	if err := syscall.Sysinfo(&si); err != nil {
		return out
	}
	for i := range out {
		out[i] = float64(si.Loads[i]) / 65536
	}
	return out
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// gitCommit asks git for HEAD; a checkout that is not a repository (the
// driver's) reports "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func captureEnvironment() Environment {
	return Environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
		Kernel:     kernelRelease(),
		Clients:    clientCount(),
		LoadBefore: loadAvg(),
	}
}

// clientCount is C: closed-loop client goroutines, never more than cores.
func clientCount() int {
	c := runtime.NumCPU()
	if c > 4 {
		c = 4
	}
	return c
}
