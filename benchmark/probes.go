package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"leakpruning/internal/core"
	"leakpruning/internal/edgetable"
	"leakpruning/internal/gc"
	"leakpruning/internal/heap"
	"leakpruning/internal/obs"
	"leakpruning/internal/server"
	"leakpruning/internal/vm"
)

// Probes are fixed-count micro-measurements of one public call each, about a
// second in total. They give a layer a number that does not depend on which
// workload ran, so a change in vm.load_ns can be read next to the change in
// iters_per_s it should explain. scale divides every count (tests only).

const (
	probeOps     = 1 << 20 // mutator and table ops
	probeObjects = 1 << 17 // collector and allocator heaps: 131072 objects
	probeCalls   = 2000    // request-sized calls, reported as medians
	probeEdges   = 512     // edge types in the table probes
)

func runProbes(scale int) map[string]float64 {
	out := map[string]float64{}
	probeMutator(out, probeOps/scale)
	probeColdLoad(out, scale)
	probeCollectEmpty(out, 200/min(scale, 20))
	probeHeap(out, probeObjects/scale)
	probeCollector(out, probeObjects/scale)
	probeEdgeTable(out, probeOps/scale, 200/min(scale, 20))
	probeServer(out, probeCalls/scale)
	probeObs(out, probeOps/scale)
	return out
}

func nsPerOp(d time.Duration, ops int) float64 { return float64(d.Nanoseconds()) / float64(ops) }

// medianOf times fn n times and returns the median in microseconds.
func medianOf(n int, fn func()) float64 {
	samples := make([]float64, n)
	for i := range samples {
		t0 := time.Now()
		fn()
		samples[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return percentile(sortedCopy(samples), 50)
}

// probeMutator times the Load, Store and New fast paths on one thread with
// barriers on, in scopes of 64 so rooted locals do not pile up.
func probeMutator(out map[string]float64, ops int) {
	v := vm.New(vm.Options{HeapLimit: 32 << 20, EnableBarriers: true, GCWorkers: 1})
	node := v.DefineClass("Node", 1, 0)
	scratch := v.DefineClass("Scratch", 0, 64)
	var load, store, alloc float64
	err := v.RunThread("probe", func(t *vm.Thread) {
		a := t.New(node)
		t.Store(a, 0, t.New(node))
		tgt := t.Load(a, 0)
		timed := func(op func()) float64 {
			t0 := time.Now()
			for i := 0; i < ops; i += 64 {
				t.Scope(func() {
					for j := 0; j < 64; j++ {
						op()
					}
				})
			}
			return nsPerOp(time.Since(t0), ops)
		}
		load = timed(func() { t.Load(a, 0) })
		store = timed(func() { t.Store(a, 0, tgt) })
		alloc = timed(func() { t.New(scratch) })
	})
	if err == nil { // a trap mid-probe leaves no trustworthy number
		out["vm.load_ns"], out["vm.store_ns"], out["vm.new_ns"] = load, store, alloc
	}
}

// probeColdLoad times Load through the barrier cold path. A controller
// forced into OBSERVE makes every collection tag every reference it scans,
// so the first load of each slot after a collection takes the out-of-line
// path: untag, clear the target's stale counter, maybe touch the edge table.
func probeColdLoad(out map[string]float64, scale int) {
	const holders, slots = 32, 256
	rounds := max(16/scale, 1)
	v := vm.New(vm.Options{HeapLimit: 32 << 20, EnableBarriers: true, GCWorkers: 1,
		Forced: true, ForceState: core.StateObserve})
	holder := v.DefineClass("Holder", slots, 0)
	leaf := v.DefineClass("Leaf", 0, 16)
	globals := make([]int, holders)
	for i := range globals {
		globals[i] = v.AddGlobal()
	}
	var spent time.Duration
	err := v.RunThread("probe", func(t *vm.Thread) {
		for _, g := range globals {
			t.Scope(func() {
				h := t.New(holder)
				t.StoreGlobal(g, h)
				for s := 0; s < slots; s++ {
					t.Store(h, s, t.New(leaf))
				}
			})
		}
		for r := 0; r < rounds; r++ {
			v.Collect()
			t0 := time.Now()
			for _, g := range globals {
				t.Scope(func() {
					h := t.LoadGlobal(g)
					for s := 0; s < slots; s++ {
						t.Load(h, s)
					}
				})
			}
			spent += time.Since(t0)
		}
	})
	loads := rounds * holders * slots
	// Only report the number if the loads really were cold.
	if err == nil && v.Stats().BarrierHits == uint64(loads) {
		out["vm.load_cold_ns"] = nsPerOp(spent, loads)
	}
}

// probeCollectEmpty times a full cycle on a near-empty heap: the fixed cost
// every collection pays before it traces anything.
func probeCollectEmpty(out map[string]float64, n int) {
	v := vm.New(vm.Options{HeapLimit: 32 << 20, EnableBarriers: true, Policy: core.DefaultPolicy{}})
	out["vm.collect_empty_us"] = medianOf(n, func() { v.Collect() })
}

func probeHeap(out map[string]float64, n int) {
	reg := heap.NewRegistry()
	node := reg.Define("Node", 1, 48)

	h := heap.New(reg, 1<<30)
	ctx := h.NewAllocContext()
	ids := make([]heap.ObjectID, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r, err := h.AllocateCtx(&ctx, node)
		if err != nil {
			return
		}
		ids = append(ids, r.ID())
	}
	out["heap.alloc_ns"] = nsPerOp(time.Since(t0), n)
	h.ReleaseContext(&ctx)

	t0 = time.Now()
	h.FreeBatch(ids)
	out["heap.free_batch_ns_per_obj"] = nsPerOp(time.Since(t0), n)

	h = heap.New(reg, 1<<30)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, err := h.Allocate(node); err != nil {
			return
		}
	}
	out["heap.alloc_nocontext_ns"] = nsPerOp(time.Since(t0), n)
}

type rootSlice []heap.Ref

func (r rootSlice) VisitRoots(fn func(heap.Ref)) {
	for _, ref := range r {
		fn(ref)
	}
}

// chainHeap builds n two-reference objects in 64 chains, every chain rooted
// (live) or none (garbage): the shapes cmd/phasebench measures.
func chainHeap(n int, live bool) (*heap.Heap, rootSlice) {
	reg := heap.NewRegistry()
	node := reg.Define("Node", 2, 64)
	h := heap.New(reg, 1<<30)
	var roots rootSlice
	const chains = 64
	for c := 0; c < chains; c++ {
		var prev heap.Ref
		for i := 0; i < n/chains; i++ {
			r, err := h.Allocate(node)
			if err != nil {
				break
			}
			if !prev.IsNull() {
				h.Get(r).SetRef(0, prev)
				h.Get(r).SetRef(1, prev)
			}
			prev = r
		}
		if live {
			roots = append(roots, prev)
		}
	}
	return h, roots
}

// probeCollector re-traces a fully live heap and sweeps a fully dead one at
// the default worker count, three times each, and reports the medians.
func probeCollector(out map[string]float64, n int) {
	workers := min(runtime.GOMAXPROCS(0), 4)
	const rounds = 3
	var mark, sweep []float64
	h, roots := chainHeap(n, true)
	col := gc.NewCollector(h, roots, workers)
	for i := 0; i < rounds; i++ {
		res := col.Collect(gc.Plan{Mode: gc.ModeNormal})
		if res.ObjectsLive > 0 {
			mark = append(mark, float64(res.MarkDuration.Nanoseconds())/float64(res.ObjectsLive))
		}
	}
	for i := 0; i < rounds; i++ {
		h, roots := chainHeap(n, false)
		res := gc.NewCollector(h, roots, workers).Collect(gc.Plan{Mode: gc.ModeNormal})
		if res.ObjectsFreed > 0 {
			sweep = append(sweep, float64(res.SweepDuration.Nanoseconds())/float64(res.ObjectsFreed))
		}
	}
	out["gc.probe_mark_ns_per_obj"] = percentile(sortedCopy(mark), 50)
	out["gc.probe_sweep_ns_per_obj"] = percentile(sortedCopy(sweep), 50)
}

// probeEdgeTable fills a default-size table (and a controller's) with
// probeEdges edge types, then times the barrier-side update, the SELECT/PRUNE
// snapshot, and a forced-SELECT plan + finish.
func probeEdgeTable(out map[string]float64, ops, calls int) {
	const classes = 32 // 32 sources x 16 targets = probeEdges
	fill := func(t *edgetable.Table) {
		for e := 0; e < probeEdges; e++ {
			t.RecordUse(heap.ClassID(1+e%classes), heap.ClassID(1+e/classes), 3)
		}
	}
	table := edgetable.New(0)
	fill(table)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		e := i % probeEdges
		table.RecordUse(heap.ClassID(1+e%classes), heap.ClassID(1+e/classes), 3)
	}
	out["edgetable.record_use_ns"] = nsPerOp(time.Since(t0), ops)
	out["edgetable.freeze_us"] = medianOf(calls, func() { table.Freeze() })

	reg := heap.NewRegistry()
	for c := 0; c < classes; c++ {
		reg.Define(fmt.Sprintf("C%d", c), 1, 0)
	}
	ctrl := core.NewController(reg, core.Options{Forced: true, ForceState: core.StateSelect})
	fill(ctrl.Edges())
	out["core.plan_finish_us"] = medianOf(calls, func() {
		plan := ctrl.PlanCycle()
		ctrl.FinishCycle(gc.Result{Mode: plan.Mode}, heap.Stats{})
	})
}

// probeServer times the two floors under a served request: the daemon's
// in-process request path on an idle serial tenant, and a bare HTTP round
// trip through its handler.
func probeServer(out map[string]float64, calls int) {
	srv, err := server.New(server.Config{Budget: daemonBudget, Obs: obs.New()})
	if err != nil {
		return
	}
	defer srv.Shutdown() // a probe daemon's drain report is not an output check
	if _, err := srv.Admit(server.TenantConfig{Name: "probe", Workload: "queueleak", Policy: "default", HeapLimit: tenantHeap}); err != nil {
		return
	}
	failed := false
	direct := medianOf(calls, func() {
		if _, err := srv.RunRequest("probe", 1); err != nil {
			failed = true
		}
	})
	if !failed {
		out["server.run_request_direct_us"] = direct
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		_ = hs.Serve(ln) // ErrServerClosed on Close
		close(served)
	}()
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	url := "http://" + ln.Addr().String() + "/healthz"
	floor := medianOf(calls, func() {
		resp, err := client.Get(url)
		if err != nil {
			failed = true
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body) // draining for keep-alive; the status line was the reply
		resp.Body.Close()
	})
	if !failed {
		out["server.http_floor_us"] = floor
	}
	tr.CloseIdleConnections()
	_ = hs.Close() // the listener is private to this probe
	<-served
}

func probeObs(out map[string]float64, ops int) {
	h := obs.NewRegistry().NewHistogram("probe_ns", "probe", obs.LatencyBucketsNs)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		h.Observe(uint64(i) << 6)
	}
	out["obs.observe_ns"] = nsPerOp(time.Since(t0), ops)
}
