package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"leakpruning/internal/core"
	"leakpruning/internal/gc"
	"leakpruning/internal/obs"
	"leakpruning/internal/vm"
	"leakpruning/internal/vmerrors"
	"leakpruning/internal/workload"
)

// batchIters is a batch repeat's fixed work: iterations of the program.
const batchIters = 8000

// largeStride is how often a 200-iteration window is sampled: "large" on a
// batch workload is the wall time of 200 consecutive Iterate calls, taken
// every largeStride iterations so a repeat yields a few hundred samples.
const largeStride = 10

// gcEvent is what the traced pass keeps from one Options.OnGC call.
type gcEvent struct {
	at       time.Time // when OnGC ran: the end of the cycle's last pause
	res      gc.Result
	pauses   []time.Duration
	fullness float64
}

// leakControl is leak_prune's control run: without pruning, eclipsediff must
// die of memory exhaustion within a tenth of the iteration cap. If it does
// not, the workload no longer shows what it claims to.
func leakControl() []string {
	rep := runBatch(batchSpec{program: "eclipsediff", pruning: false, iters: batchIters / 10}, runConfig{scale: 1})
	if !vmerrors.IsOOM(rep.Err) {
		return []string{fmt.Sprintf("policy-off control ran %d of %d iterations without exhausting memory (err: %v)", rep.Iters, rep.Attempted, rep.Err)}
	}
	return nil
}

// batchSpec names a batch workload's program, whether the default pruning
// policy is on (off only in the control run), and the iterations of one
// repeat at full scale (0 times the set-up alone).
type batchSpec struct {
	program string
	pruning bool
	iters   int
}

// runBatch runs one repeat of a batch workload on a fresh VM, driving the
// program through vm.New -> RunThread -> Setup/Iterate exactly as
// harness.Run does, and timestamps every iteration boundary. Spans are built
// from the timestamps afterwards, so the traced pass differs from the
// untraced one only by the attached obs.Obs and the kept GC events. The VM
// gets the options harness.Run derives from a Config naming only the program
// and the policy: barriers on, default heap, GC workers and STW mark.
func runBatch(spec batchSpec, cfg runConfig) repeat {
	var rep repeat
	prog, err := workload.New(spec.program)
	if err != nil {
		rep.Err = err
		rep.Problems = append(rep.Problems, err.Error())
		return rep
	}
	n := spec.iters / cfg.scale
	var policy core.Policy
	if spec.pruning {
		policy = core.DefaultPolicy{}
	}

	var o *obs.Obs
	if cfg.traced {
		o = obs.New()
	}
	var modes [3]uint64
	var events []gcEvent
	onGC := func(ev vm.Event) {
		if int(ev.Result.Mode) < len(modes) {
			modes[ev.Result.Mode]++
		}
		if cfg.traced {
			events = append(events, gcEvent{
				at: time.Now(), res: ev.Result,
				pauses:   append([]time.Duration(nil), ev.Pauses...),
				fullness: ev.Heap.Fullness(),
			})
		}
	}

	stamps := make([]time.Time, 1, n+1) // iteration boundaries
	var (
		setupDone           time.Time
		cpu0                float64
		atSetup             vm.Stats
		heapAtSetup         uint64
		goAtSetup           goRuntimeStats
		cyclesAtSetup       [3]uint64
		eventsAtSetup, done int
	)
	t0 := time.Now()
	machine := vm.New(vm.Options{
		HeapLimit:      prog.DefaultHeap(),
		Policy:         policy,
		EnableBarriers: true,
		Obs:            o,
		OnGC:           onGC,
	})
	runErr := machine.RunThread("main", func(t *vm.Thread) {
		t.Scope(func() { prog.Setup(t) })
		setupDone = time.Now()
		atSetup = machine.Stats()
		heapAtSetup = machine.HeapStats().BytesAlloc
		cyclesAtSetup, eventsAtSetup = modes, len(events)
		if cfg.traced {
			goAtSetup = readGoRuntime()
		}
		cpu0 = cpuMs()
		stamps[0] = time.Now()
		for iter := 0; iter < n; iter++ {
			t.MarkIteration(iter)
			t.Scope(func() { prog.Iterate(t, iter) })
			stamps = append(stamps, time.Now())
			done = iter + 1
		}
	})
	end := time.Now()
	rep.CPUMs = cpuMs() - cpu0
	rep.Err = runErr
	if setupDone.IsZero() { // Setup itself trapped
		rep.Problems = append(rep.Problems, fmt.Sprintf("set-up failed: %v", runErr))
		rep.Attempted, rep.Failed = n, n
		return rep
	}
	rep.SetupS = setupDone.Sub(t0).Seconds()
	rep.WallS = end.Sub(stamps[0]).Seconds()
	rep.Iters = done
	rep.Attempted, rep.Failed = n, n-done
	if runErr != nil || done < n {
		rep.Problems = append(rep.Problems, fmt.Sprintf("ended at iteration %d of %d: %v", done, n, runErr))
	}

	for i := 1; i < len(stamps); i++ {
		rep.Small = append(rep.Small, ms(stamps[i].Sub(stamps[i-1])))
	}
	window := largeIters
	if window > done {
		window = done
	}
	for i := 0; window > 0 && i+window < len(stamps); i += largeStride {
		rep.Large = append(rep.Large, ms(stamps[i+window].Sub(stamps[i])))
	}

	st := machine.Stats()
	prunes := machine.PruneEvents()
	rep.Counts = simCounts{
		Loads:        st.Loads - atSetup.Loads,
		ColdHits:     st.BarrierHits - atSetup.BarrierHits,
		Allocations:  st.Allocations - atSetup.Allocations,
		Cycles:       st.Collections - atSetup.Collections,
		CyclesSelect: modes[gc.ModeSelect] - cyclesAtSetup[gc.ModeSelect],
		CyclesPrune:  modes[gc.ModePrune] - cyclesAtSetup[gc.ModePrune],
		Prunes:       uint64(len(prunes)),
		PrunedRefs:   st.PrunedRefs,
	}
	if cfg.traced {
		goDelta := readGoRuntime().minus(goAtSetup)
		rec := newRecorder(t0)
		batchSpans(rec, t0, setupDone, end, stamps, events)
		rep.Spans = rec.snapshot()
		rep.Layer = batchLayer(machine, o, rep, st, prunes, events[eventsAtSetup:], heapAtSetup, goDelta)
	}
	return rep
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// batchSpans builds run > workload.setup, workload.iterate xN > vm.pause >
// gc.cycle > gc.mark/gc.stale/gc.remark/gc.sweep from the timestamps and the
// kept GC events. A pause is placed to end when OnGC ran; the cycle and its
// phases are placed from the pause's start using gc.Result's durations, so
// durations are exact and offsets inside the pause are nominal. Batch
// workloads use STW marking: one pause per cycle.
func batchSpans(rec *Recorder, t0, setupDone, end time.Time, stamps []time.Time, events []gcEvent) {
	root := rec.add("run", -1, 0, rec.at(t0), rec.at(end))
	setup := rec.add("workload.setup", root, 0, rec.at(t0), rec.at(setupDone))
	iterate := make([]int, len(stamps)-1)
	for i := range iterate {
		iterate[i] = rec.add("workload.iterate", root, 0, rec.at(stamps[i]), rec.at(stamps[i+1]))
	}
	for _, ev := range events {
		parent := setup
		// The first boundary after the event closes the iteration it ran in.
		if i := sort.Search(len(stamps), func(i int) bool { return stamps[i].After(ev.at) }); i > 0 && i <= len(iterate) {
			parent = iterate[i-1]
		}
		if len(ev.pauses) == 0 {
			continue
		}
		pauseEnd := rec.at(ev.at)
		pauseStart := pauseEnd - ev.pauses[len(ev.pauses)-1].Nanoseconds()
		pause := rec.add("vm.pause", parent, 0, pauseStart, pauseEnd)
		cycle := rec.add("gc.cycle", pause, 0, pauseStart, pauseStart+ev.res.Duration.Nanoseconds())
		cursor := pauseStart
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{{"gc.mark", ev.res.MarkDuration}, {"gc.remark", ev.res.RemarkDuration}, {"gc.stale", ev.res.StaleDuration}, {"gc.sweep", ev.res.SweepDuration}} {
			if ph.d > 0 {
				rec.add(ph.name, cycle, 0, cursor, cursor+ph.d.Nanoseconds())
				cursor += ph.d.Nanoseconds()
			}
		}
	}
}

// batchLayer derives a traced batch repeat's per-layer values: span self
// times, VM / heap / controller counts over the window, and the run's own
// registry.
func batchLayer(machine *vm.VM, o *obs.Obs, rep repeat, st vm.Stats, prunes []core.PruneEvent, events []gcEvent, heapAtSetup uint64, goDelta goRuntimeStats) map[string]float64 {
	L := map[string]float64{}
	self := selfTimes(rep.Spans)
	var iterSelf []float64
	var iterSelfNs int64
	for _, s := range rep.Spans {
		switch s.Name {
		case "workload.iterate":
			iterSelf = append(iterSelf, float64(self[s.ID])/1e3)
			iterSelfNs += self[s.ID]
		case "workload.setup":
			L["workload.setup_ms"] = float64(s.End-s.Start) / 1e6
		}
	}
	L["workload.iter_self_us_p50"] = percentile(sortedCopy(iterSelf), 50)

	c := rep.Counts
	L["vm.loads"] = float64(c.Loads)
	L["vm.allocations"] = float64(c.Allocations)
	L["vm.barrier_cold_hits"] = float64(c.ColdHits)
	if c.Loads > 0 {
		L["vm.barrier_hit_ratio"] = float64(c.ColdHits) / float64(c.Loads)
	}
	L["vm.poison_traps"] = float64(st.PoisonTraps)
	if ops := c.Loads + c.Allocations; ops > 0 {
		L["vm.mutator_ns_per_op"] = float64(iterSelfNs) / float64(ops)
	}

	var pausesUs []float64
	var pauseNs, phaseNs, markNs, staleNs, sweepNs, remarkNs, gcNs int64
	var live, freed, degraded uint64
	peak := 0.0
	for _, ev := range events {
		for _, p := range ev.pauses {
			pausesUs = append(pausesUs, float64(p.Nanoseconds())/1e3)
			pauseNs += p.Nanoseconds()
		}
		markNs += ev.res.MarkDuration.Nanoseconds()
		staleNs += ev.res.StaleDuration.Nanoseconds()
		sweepNs += ev.res.SweepDuration.Nanoseconds()
		remarkNs += ev.res.RemarkDuration.Nanoseconds()
		gcNs += ev.res.Duration.Nanoseconds()
		live += ev.res.ObjectsLive
		freed += ev.res.ObjectsFreed
		if ev.res.Degraded {
			degraded++
		}
		if ev.fullness > peak {
			peak = ev.fullness
		}
	}
	phaseNs = markNs + staleNs + sweepNs + remarkNs
	wallNs := rep.WallS * 1e9
	sorted := sortedCopy(pausesUs)
	L["vm.pause_p50_us"] = percentile(sorted, 50)
	L["vm.pause_p99_us"] = percentile(sorted, supportedPercentile(len(sorted), 99))
	if len(sorted) > 0 {
		L["vm.pause_max_us"] = sorted[len(sorted)-1]
	}
	L["vm.pause_share"] = float64(pauseNs) / wallNs
	L["vm.pause_overhead_ms"] = float64(pauseNs-phaseNs) / 1e6

	reg := snapshotRegistry(o)
	L["vm.safepoint_stop_us_mean"] = reg.histMean("lp_safepoint_stop_ns") / 1e3

	hs := machine.HeapStats()
	L["heap.bytes_allocated"] = float64(hs.BytesAlloc - heapAtSetup)
	L["heap.peak_fullness"] = peak
	L["heap.bytes_live_end"] = float64(hs.BytesUsed)

	L["gc.cycles"] = float64(c.Cycles)
	L["gc.cycles_select"] = float64(c.CyclesSelect)
	L["gc.cycles_prune"] = float64(c.CyclesPrune)
	L["gc.cycles_degraded"] = float64(degraded)
	L["gc.time_share"] = float64(gcNs) / wallNs
	L["gc.mark_ms"] = float64(markNs) / 1e6
	L["gc.stale_ms"] = float64(staleNs) / 1e6
	L["gc.sweep_ms"] = float64(sweepNs) / 1e6
	L["gc.remark_ms"] = float64(remarkNs) / 1e6
	if live > 0 {
		L["gc.mark_ns_per_live_obj"] = float64(markNs) / float64(live)
	}
	if freed > 0 {
		L["gc.sweep_ns_per_freed_obj"] = float64(sweepNs) / float64(freed)
	}

	var bytesPruned uint64
	for _, p := range prunes {
		bytesPruned += p.BytesFreed
	}
	L["core.prunes"] = float64(c.Prunes)
	L["core.pruned_refs"] = float64(c.PrunedRefs)
	L["core.bytes_pruned"] = float64(bytesPruned)
	L["edgetable.edge_types"] = float64(machine.EdgeTable().Len())
	L["edgetable.overflows"] = float64(st.EdgeTableOverflows)

	t0 := time.Now()
	_ = o.Registry().WritePrometheus(io.Discard) // io.Discard cannot fail
	L["obs.scrape_ms"] = ms(time.Since(t0))
	L["obs.series"] = float64(len(reg.series))

	L["host.go_alloc_mb"] = goDelta.allocMB
	L["host.go_gc_cycles"] = goDelta.gcCycles
	L["host.go_gc_pause_ms"] = goDelta.pauseMs

	// The parts must add up to the whole: iterate self time plus the pauses
	// inside iterations is the measured wall, and a pause is its collector
	// phases plus the overhead around them.
	L[sumCheckKey] = (float64(iterSelfNs) + float64(pauseNs)) / wallNs
	return L
}

// sumCheckKey carries the parts/whole ratio of a traced repeat. It is not a
// contract metric: runWorkload turns it into a problem when it leaves
// [0.95, 1.05] and prints it in the report.
const sumCheckKey = "check.parts_over_whole"
