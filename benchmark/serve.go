package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"leakpruning/internal/obs"
	"leakpruning/internal/server"
	"leakpruning/internal/stats"
)

// serveSpec is what differs between the two served workloads.
type serveSpec struct {
	tenants int
	// pipelined selects pipeline "concurrent" (default Workers/QueueDepth)
	// with mark_mode "concurrent"; otherwise every tenant field is default:
	// serial pipeline, STW mark.
	pipelined bool
}

var (
	servePipelined = serveSpec{tenants: 1, pipelined: true}
	serveTenants   = serveSpec{tenants: 4}
)

const (
	tenantHeap   = 16 << 20
	daemonBudget = 256 << 20
	// spanHeader links a server.handle span to the client.request that
	// caused it.
	spanHeader = "X-Bench-Span"
)

// failKind says why an op counts as failed. A failed op misses every latency
// metric and its iterations are not counted as work done.
type failKind int

const (
	opOK failKind = iota
	failTransport
	failShed       // 429: the pipeline queue was full
	failStatus     // any other non-200
	failBody       // 200 whose body does not decode
	failErrorBody  // 200 carrying an "error" field: the tenant faulted
	failIterations // 200 whose "iterations" is not what was asked
)

// classify decides one HTTP op's outcome from what the client saw.
func classify(status int, body []byte, err error, asked int) failKind {
	switch {
	case err != nil:
		return failTransport
	case status == http.StatusTooManyRequests:
		return failShed
	case status != http.StatusOK:
		return failStatus
	}
	var reply struct {
		Iterations int    `json:"iterations"`
		Error      string `json:"error"`
	}
	if json.Unmarshal(body, &reply) != nil {
		return failBody
	}
	if reply.Error != "" {
		return failErrorBody
	}
	if reply.Iterations != asked {
		return failIterations
	}
	return opOK
}

// clientResult is one closed-loop client's record of the measured segment.
type clientResult struct {
	small, large []float64
	iters        int
	failed       [failIterations + 1]int
	maxLevel     int
}

// runServe runs one repeat of a served workload against a fresh in-process
// daemon behind the benchmark's own http.Server: boot, admit, warm up (all
// set-up), then every client issues its measured schedule closed-loop.
func runServe(spec serveSpec, cfg runConfig) repeat {
	var rep repeat
	fail := func(format string, args ...any) repeat {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
		return rep
	}
	clients := clientCount()
	sched := buildSchedule(cfg.seed, clients, spec.tenants, cfg.scale)
	for _, c := range sched {
		rep.Attempted += len(c.Measured)
	}
	rep.Failed = rep.Attempted // until the window says otherwise

	var rec *Recorder
	if cfg.traced {
		rec = newRecorder(time.Now())
	}

	t0 := time.Now()
	o := obs.New()
	srv, err := server.New(server.Config{
		Budget:         daemonBudget,
		ProbeInterval:  250 * time.Millisecond,
		RequestTimeout: 60 * time.Second,
		Obs:            o,
	})
	if err != nil {
		return fail("server.New: %v", err)
	}
	handler := srv.Handler()
	if cfg.traced {
		handler = spanMiddleware(rec, handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_, _ = srv.Shutdown() // nothing admitted yet; the listen error is what matters
		return fail("listen: %v", err)
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		_ = hs.Serve(ln) // returns ErrServerClosed on Shutdown
		close(served)
	}()
	base := "http://" + ln.Addr().String()

	var admitMs []float64
	for i := 0; i < spec.tenants; i++ {
		tc := server.TenantConfig{Name: tenantName(i), Workload: "queueleak", Policy: "default", HeapLimit: tenantHeap}
		if spec.pipelined {
			tc.Pipeline = server.PipelineConcurrent
			tc.MarkMode = "concurrent"
		}
		ta := time.Now()
		if _, err := srv.Admit(tc); err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("admit %s: %v", tc.Name, err))
		}
		admitMs = append(admitMs, ms(time.Since(ta)))
	}

	// One private transport per client, wrk-style: each closed loop owns its
	// connection and sends its next request when the previous reply lands.
	transports := make([]*http.Transport, clients)
	results := make([]clientResult, clients)
	runSegment := func(measured bool) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client := &http.Client{Transport: transports[c], Timeout: 90 * time.Second}
				reqs := sched[c].Warmup
				if measured {
					reqs = sched[c].Measured
				}
				res := &results[c]
				for _, q := range reqs {
					span := -1
					if measured {
						span = rec.reserve("client.request", -1, 1+c)
					}
					start := time.Now()
					status, body, err := post(client, base, q, span)
					lat := ms(time.Since(start))
					rec.finish(span)
					if !measured {
						continue
					}
					kind := classify(status, body, err, q.Iters)
					res.failed[kind]++
					if lvl := srv.PressureLevel(); lvl > res.maxLevel {
						res.maxLevel = lvl
					}
					if kind != opOK {
						continue
					}
					res.iters += q.Iters
					if q.Iters == smallIters {
						res.small = append(res.small, lat)
					} else {
						res.large = append(res.large, lat)
					}
				}
			}(c)
		}
		wg.Wait()
	}
	for c := range transports {
		transports[c] = &http.Transport{MaxIdleConnsPerHost: 1}
	}

	runSegment(false)
	setupDone := time.Now()
	rep.SetupS = setupDone.Sub(t0).Seconds()

	var regBefore regView
	var traceBefore map[string]float64
	var goBefore goRuntimeStats
	if cfg.traced {
		regBefore = snapshotRegistry(o)
		traceBefore = traceSpanTotals(o)
		goBefore = readGoRuntime()
	}
	cpu0 := cpuMs()
	windowStart := time.Now()
	runSegment(true)
	rep.WallS = time.Since(windowStart).Seconds()
	rep.CPUMs = cpuMs() - cpu0

	okOps, maxLevel := 0, 0
	var failed [failIterations + 1]int
	for _, r := range results {
		rep.Small = append(rep.Small, r.small...)
		rep.Large = append(rep.Large, r.large...)
		rep.Iters += r.iters
		okOps += r.failed[opOK]
		for k, n := range r.failed {
			failed[k] += n
		}
		if r.maxLevel > maxLevel {
			maxLevel = r.maxLevel
		}
	}
	rep.Failed = rep.Attempted - okOps

	// Output checks on the daemon's own view of the window.
	statuses := srv.Tenants()
	var faults, restarts, audits, prunedRefs, traps, resident uint64
	for _, st := range statuses {
		faults += st.Faults
		restarts += st.Restarts
		audits += st.AuditViolations
		prunedRefs += st.PrunedRefs
		traps += st.PoisonTraps
		resident += st.Resident
	}
	if len(statuses) != spec.tenants {
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d tenants serving, want %d", len(statuses), spec.tenants))
	}
	if faults != 0 || audits != 0 || restarts != 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("tenant status: faults=%d audit_violations=%d session_restarts=%d, want 0", faults, audits, restarts))
	}
	if maxLevel != 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("budget ladder reached level %d, want 0", maxLevel))
	}

	if cfg.traced {
		L := map[string]float64{}
		reg := snapshotRegistry(o).minus(regBefore)
		traceAfter := traceSpanTotals(o)
		goDelta := readGoRuntime().minus(goBefore)
		wallNs := rep.WallS * 1e9

		L["workload.setup_ms"] = rep.SetupS * 1e3
		L["vm.barrier_cold_hits"] = reg.counter("lp_barrier_cold_hits_total")
		L["vm.poison_traps"] = float64(traps)
		pauseNs, _ := reg.hist("lp_gc_pause_ns")
		var maxPause int64
		for _, ns := range srv.MaxPausesByMode() {
			if ns > maxPause {
				maxPause = ns
			}
		}
		L["vm.pause_max_us"] = float64(maxPause) / 1e3
		L["vm.pause_share"] = pauseNs / wallNs
		L["vm.safepoint_stop_us_mean"] = reg.histMean("lp_safepoint_stop_ns") / 1e3
		L["heap.bytes_live_end"] = float64(resident)

		markNs, _ := reg.hist("lp_gc_mark_ns")
		staleNs, _ := reg.hist("lp_gc_stale_ns")
		sweepNs, _ := reg.hist("lp_gc_sweep_ns")
		remarkNs := traceAfter["gc.remark"] - traceBefore["gc.remark"]
		L["gc.cycles"] = reg.counter("lp_gc_cycles_total")
		L["gc.cycles_select"] = reg.counter("lp_gc_cycles_total", "mode", "select")
		L["gc.cycles_prune"] = reg.counter("lp_gc_cycles_total", "mode", "prune")
		L["gc.cycles_degraded"] = reg.counter("lp_gc_degraded_total")
		L["gc.time_share"] = (markNs + staleNs + sweepNs + remarkNs) / wallNs
		L["gc.mark_ms"] = markNs / 1e6
		L["gc.stale_ms"] = staleNs / 1e6
		L["gc.sweep_ms"] = sweepNs / 1e6
		L["gc.remark_ms"] = remarkNs / 1e6

		L["core.prunes"] = L["gc.cycles_prune"]
		L["core.pruned_refs"] = float64(prunedRefs)
		bytesPruned, _ := reg.hist("lp_prune_freed_bytes")
		L["core.bytes_pruned"] = bytesPruned

		L["server.requests"] = float64(rep.Attempted)
		L["server.failed"] = float64(rep.Failed)
		L["server.shed_429"] = float64(failed[failShed])
		L["server.session_restarts"] = float64(restarts)
		L["server.tenant_faults"] = float64(faults)
		L["server.pressure_level_max"] = float64(maxLevel)
		L["server.req_per_s"] = float64(okOps) / rep.WallS
		L["server.queue_wait_us_mean"] = reg.histMean("lp_request_queue_wait_ns") / 1e3
		L["server.admit_ms"] = stats.Mean(admitMs)

		rep.Spans = rec.snapshot()
		var overheadUs []float64
		var handleNs int64
		handled := 0
		for _, s := range rep.Spans {
			if s.Name != "server.handle" || s.Parent < 0 {
				continue
			}
			parent := rep.Spans[s.Parent]
			h, c := s.End-s.Start, parent.End-parent.Start
			overheadUs = append(overheadUs, float64(c-h)/1e3)
			handleNs += h
			handled++
		}
		if handled > 0 {
			L["server.http_overhead_us_p50"] = percentile(sortedCopy(overheadUs), 50)
			L["server.handle_ms_mean"] = float64(handleNs) / float64(handled) / 1e6
		}
		if handled != rep.Attempted {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%d server.handle spans linked for %d requests", handled, rep.Attempted))
		}

		ts := time.Now()
		_ = o.Registry().WritePrometheus(io.Discard) // io.Discard cannot fail
		L["obs.scrape_ms"] = ms(time.Since(ts))
		L["obs.series"] = float64(len(reg.series))
		L["host.go_alloc_mb"] = goDelta.allocMB
		L["host.go_gc_cycles"] = goDelta.gcCycles
		L["host.go_gc_pause_ms"] = goDelta.pauseMs

		// Evict one tenant to time the teardown path; its audit findings
		// count like the shutdown's.
		te := time.Now()
		findings, err := srv.EvictTenant(tenantName(0), "benchmark teardown")
		L["server.evict_ms"] = ms(time.Since(te))
		if err != nil || len(findings) > 0 {
			rep.Problems = append(rep.Problems, fmt.Sprintf("evict %s: %d audit findings, err %v", tenantName(0), len(findings), err))
		}
		rep.Layer = L
	}

	for _, tr := range transports {
		tr.CloseIdleConnections()
	}
	// Every closed-loop client has its last reply, so there is nothing to
	// drain: Close, not Shutdown, which would poll for idle connections.
	_ = hs.Close() // the listener is private to this repeat
	<-served
	report, err := srv.Shutdown()
	if err != nil || report == nil || !report.DrainedCleanly || len(report.AuditViolations) > 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("daemon shutdown: report %+v, err %v", report, err))
	}
	return rep
}

func tenantName(i int) string { return "t" + strconv.Itoa(i) }

// post issues one run request and returns the status and body.
func post(client *http.Client, base string, q Request, span int) (int, []byte, error) {
	url := base + "/tenants/" + tenantName(q.Tenant) + "/run?iters=" + strconv.Itoa(q.Iters)
	req, err := http.NewRequest(http.MethodPost, url, nil)
	if err != nil {
		return 0, nil, err
	}
	if span >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// spanMiddleware records a server.handle span around the daemon's handler
// for every request that names the client span that caused it.
func spanMiddleware(rec *Recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := rec.now()
		next.ServeHTTP(w, r)
		rec.add("server.handle", parent, serverTrack, start, rec.now())
	})
}

// serverTrack is the Perfetto lane server.handle spans are drawn on; client
// c draws on lane 1+c.
const serverTrack = 100
