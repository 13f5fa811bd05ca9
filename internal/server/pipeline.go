package server

// The request pipeline, the daemon's one request engine: a per-tenant pool
// of K worker goroutines (K = 1 unless the tenant asks for more), each
// driving its own independent session of the tenant's workload inside the
// one tenant VM, fed by a bounded queue with backpressure. The safepoint
// protocol and the concurrent mark/SELECT/PRUNE cycles are what make K > 1
// mutator threads in one VM sound.
//
// The contract with the rest of the package:
//
//   - requests enter through Server.RunRequest, which enqueues under
//     Tenant.pipeMu's read side — the gate Tenant.exclusive shuts — and
//     bumps pending BEFORE the enqueue;
//   - a worker dequeues, executes, records the outcome (finishRequest),
//     responds, and only THEN decrements pending — so pending == 0 behind
//     a shut gate means "no request is queued, executing, or
//     mid-bookkeeping, and none can arrive", which is the quiescence
//     eviction drains, rolling session swaps and the shutdown audit wait
//     for;
//   - the response channel is buffered, so a caller abandoned by the
//     watchdog never wedges a worker: the late result is still executed,
//     still recorded, and the buffered send completes immediately.
//
// Head-of-line blocking is what K > 1 buys out of: with one worker a small
// request queues behind every large request ahead of it, so small-request
// tail latency is a multiple of the LARGE service time. With K workers
// the Go scheduler time-slices the sessions (the win needs no extra
// cores), and a small request's latency decouples from its neighbors'.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leakpruning/internal/workload"
)

// pipelineReq is one queued request.
type pipelineReq struct {
	iters    int
	enqueued time.Time
	// cancel asks this request (alone) to stop at its next iteration
	// boundary; timedOut marks that the caller already took a watchdog
	// timeout, so the late outcome must not reset the fault streak.
	cancel   atomic.Bool
	timedOut atomic.Bool
	// resp is buffered (1): the worker's send never blocks, even when the
	// caller is long gone.
	resp chan pipelineResp
}

type pipelineResp struct {
	done int
	err  error
}

// pipeline is one tenant's request engine.
type pipeline struct {
	workers int
	depth   int
	queue   chan *pipelineReq
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
	// pending counts requests from enqueue until the worker has recorded
	// the outcome and responded — the exclusive() quiescence predicate.
	pending atomic.Int64
	// seq names request threads uniquely across concurrent workers.
	seq atomic.Uint64
}

func newPipeline(t *Tenant, tc TenantConfig) *pipeline {
	workers, depth := tc.pipelineSettings()
	p := &pipeline{
		workers: workers,
		depth:   depth,
		queue:   make(chan *pipelineReq, depth),
		stop:    make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go t.workerLoop(p, i)
	}
	return p
}

// close signals the workers to exit after their current request. It does
// not wait: a wedged request must not block eviction any harder than it
// already blocked the drain (callers that need quiescence use
// Tenant.exclusive BEFORE closing).
func (p *pipeline) close() {
	p.stopped.Do(func() { close(p.stop) })
}

// workerSession is one worker's private session: a program instance and
// iteration cursor bound to a session epoch, rebuilt lazily whenever the
// tenant's epoch moves (OOM restart, rolling swap).
type workerSession struct {
	epoch int64
	st    execState
}

// workerLoop is one of the K pool goroutines. It lives until the
// pipeline is closed (tenant eviction, daemon shutdown, or a reshape to a
// different pool geometry), then fails any still-queued requests so no
// caller waits on a dead pipeline.
//
// After each response the worker yields once: the send has just readied
// the caller's goroutine on this P, and dequeuing straight away would keep
// it waiting behind the whole next request when the pool's workers do not
// yield per iteration.
func (t *Tenant) workerLoop(p *pipeline, id int) {
	defer p.wg.Done()
	var sess workerSession
	for {
		select {
		case <-p.stop:
			for {
				select {
				case req := <-p.queue:
					t.failQueued(p, req)
				default:
					return
				}
			}
		case req := <-p.queue:
			t.serveQueued(p, &sess, id, req)
			runtime.Gosched()
		}
	}
}

// failQueued answers a request that outlived its pipeline.
func (t *Tenant) failQueued(p *pipeline, req *pipelineReq) {
	t.cancelled.Add(1)
	err := &RequestCancelledError{Tenant: t.Config().Name}
	t.srv.finishRequest(t, err, t.sessionEpoch.Load(), req.timedOut.Load())
	req.resp <- pipelineResp{err: err}
	p.pending.Add(-1)
}

// serveQueued executes one dequeued request on the worker's private
// session, records the outcome, and responds.
func (t *Tenant) serveQueued(p *pipeline, sess *workerSession, id int, req *pipelineReq) {
	s := t.srv
	t.queueDepth.Set(int64(len(p.queue)))
	t.queueWait.Observe(uint64(time.Since(req.enqueued)))

	// Rebind the private session if the tenant's session moved since this
	// worker's last request. Ordering note: the epoch is read BEFORE the
	// VM pointer, so at worst the worker runs a fresh program on a fresh
	// VM while remembering a stale epoch — and rebinds again next time.
	epoch := t.sessionEpoch.Load()
	if sess.st.prog == nil || sess.epoch != epoch {
		cfg := t.Config()
		prog, err := workload.New(cfg.Workload)
		if err != nil {
			// The workload vanished from the registry mid-flight; treat it
			// like any other tenant fault.
			s.finishRequest(t, err, epoch, req.timedOut.Load())
			req.resp <- pipelineResp{err: err}
			p.pending.Add(-1)
			return
		}
		sess.epoch = epoch
		sess.st = execState{machine: t.currentVM(), prog: prog}
	}

	reqName := fmt.Sprintf("%s/w%d-req-%d", t.Config().Name, id, p.seq.Add(1))
	st, done, err := t.executeRequest(sess.st, reqName, req.iters, p.workers > 1, func() bool {
		return req.cancel.Load() || t.cancel.Load() || t.srv.cancelAll.Load()
	})
	sess.st = st
	s.finishRequest(t, err, sess.epoch, req.timedOut.Load())
	req.resp <- pipelineResp{done: done, err: err}
	p.pending.Add(-1)
}

// enqueue places req on the tenant's bounded queue, shedding with a typed
// *QueueFullError when the queue is at depth. It passes the gate first:
// while a maintenance path holds the tenant exclusively the caller waits
// here, then lands on whatever session and pool the maintenance left — or
// finds the tenant gone.
func (t *Tenant) enqueue(req *pipelineReq) error {
	t.pipeMu.RLock()
	defer t.pipeMu.RUnlock()
	p := t.pipe
	if p == nil {
		return &TenantUnavailableError{Tenant: t.Config().Name, State: t.State()}
	}
	p.pending.Add(1)
	select {
	case p.queue <- req:
		t.queueDepth.Set(int64(len(p.queue)))
		return nil
	default:
		p.pending.Add(-1)
		return &QueueFullError{Tenant: t.Config().Name, Depth: p.depth}
	}
}

// reshapePipeline swaps the worker pool for one of tc's geometry. Caller
// holds the tenant exclusively (session swap path). A same-geometry update
// keeps the pool: the workers rebind their sessions on the epoch bump
// alone.
func (t *Tenant) reshapePipeline(tc TenantConfig) {
	if workers, depth := tc.pipelineSettings(); t.pipe.workers == workers && t.pipe.depth == depth {
		return
	}
	t.pipe.close()
	t.pipe = newPipeline(t, tc)
}

// closePipeline tears the engine down on tenant drop or daemon shutdown.
// Caller holds the gate's write side.
func (t *Tenant) closePipeline() {
	if t.pipe != nil {
		t.pipe.close()
		t.pipe = nil
	}
}
