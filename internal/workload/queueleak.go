package workload

import (
	"leakpruning/internal/heap"
	"leakpruning/internal/vm"
)

// QueueLeak (unbounded-queue): a producer/consumer work queue where the
// consumer keeps up — every batch is drained the same iteration it is
// enqueued, so the queue itself stays bounded and dequeued jobs die
// immediately. The leak is the bookkeeping: every processed job appends a
// completion record to a done log that nobody ever reads back. The log
// head stays reachable from a global, so the whole history is
// stale-but-live growth; a small in-flight ledger the scheduler revisits
// on a long period is the live structure the default policy must protect
// while pruning the log wholesale.
//
// This is also the benchmark's large-request profile (benchmark/serve.go): one request = many
// iterations of enqueue/drain/log, which is exactly the kind of
// long-running call that starves small requests of a serial pipeline.

func init() {
	registerCorpus("queueleak", TaxQueue, map[string]Outcome{
		"default":    OutcomeSurvives,
		"most-stale": OutcomeTrap, // prunes the live in-flight ledger before its next audit
		"indiv-refs": OutcomeSurvives,
		"off":        OutcomeOOM,
	}, func() Program { return newQueueLeak() })
}

type queueLeak struct {
	queue   heap.ClassID
	job     heap.ClassID
	payload heap.ClassID
	logEnt  heap.ClassID
	record  heap.ClassID
	ledgerE heap.ClassID
	ledgerB heap.ClassID
	scratch heap.ClassID
	queueG  int
	logG    int
	ledgerG int
}

func newQueueLeak() *queueLeak { return &queueLeak{} }

func (p *queueLeak) Name() string { return "queueleak" }
func (p *queueLeak) Description() string {
	return "corpus/unbounded-queue: drained work queue whose never-read completion log grows forever"
}
func (p *queueLeak) DefaultHeap() uint64 { return 8 << 20 }

const (
	queueJobsPerIter   = 8
	queueJobBytes      = 256
	queueLogBytes      = 1500
	queueLedgerEntries = 6
	ledgerTouchPeriod  = 160
)

func (p *queueLeak) Setup(t *vm.Thread) {
	v := t.VM()
	p.queue = v.DefineClass("WorkQueue", 2, 64) // head (sentinel), tail
	p.job = v.DefineClass("QueuedJob", 2, 48)   // next, payload
	p.payload = v.DefineClass("JobPayload", 0, queueJobBytes)
	p.logEnt = v.DefineClass("DoneLogEntry", 2, 48) // next, record
	p.record = v.DefineClass("DoneRecord", 0, queueLogBytes)
	p.ledgerE = v.DefineClass("InflightLedger", 2, 64) // next, blob
	p.ledgerB = v.DefineClass("LedgerBlob", 0, 256)
	p.scratch = v.DefineClass("QueueScratch", 0, 64)
	p.queueG = v.AddGlobal()
	p.logG = v.AddGlobal()
	p.ledgerG = v.AddGlobal()
	t.InFrame(2, func(f *vm.Frame) {
		// Michael–Scott style: head always points at a sentinel, so the
		// drain loop never has to write a null tail.
		q := t.New(p.queue)
		f.Set(0, q)
		sentinel := t.New(p.job)
		t.Store(q, 0, sentinel)
		t.Store(q, 1, sentinel)
		t.StoreGlobal(p.queueG, q)
		// The in-flight ledger: a short live chain the scheduler audits
		// every ledgerTouchPeriod iterations.
		var prev heap.Ref
		for i := 0; i < queueLedgerEntries; i++ {
			d := t.New(p.ledgerE)
			f.Set(1, d)
			t.Store(d, 1, t.New(p.ledgerB))
			if prev.IsNull() {
				t.StoreGlobal(p.ledgerG, d)
			} else {
				t.Store(prev, 0, d)
			}
			prev = d
		}
	})
}

func (p *queueLeak) Iterate(t *vm.Thread, iter int) bool { return held(t, iter, p.iterate) }

func (p *queueLeak) iterate(t *vm.Thread, iter int) bool {
	t.InFrame(3, func(f *vm.Frame) {
		q := t.LoadGlobal(p.queueG)
		f.Set(0, q)
		// Produce: enqueue a batch at the tail.
		for j := 0; j < queueJobsPerIter; j++ {
			job := t.New(p.job)
			f.Set(1, job)
			t.Store(job, 1, t.New(p.payload))
			t.Store(t.Load(q, 1), 0, job)
			t.Store(q, 1, job)
		}
		// Consume: drain everything enqueued. The dequeued node becomes
		// the new sentinel, so the old sentinel (and its payload) is dead
		// the moment the head advances — the queue never accumulates. But
		// processing appends a completion record to the unbounded done
		// log, newest first, and no code path ever reads the log.
		for {
			sentinel := t.Load(q, 0)
			f.Set(1, sentinel)
			next := t.Load(sentinel, 0)
			if next.IsNull() {
				break
			}
			f.Set(1, next)
			t.Load(next, 1) // process the job's payload
			t.Store(q, 0, next)
			e := t.New(p.logEnt)
			f.Set(2, e)
			t.Store(e, 1, t.New(p.record))
			t.Store(e, 0, t.LoadGlobal(p.logG))
			t.StoreGlobal(p.logG, e)
		}
		// Rare maintenance: the scheduler audits the live ledger.
		if iter%ledgerTouchPeriod == ledgerTouchPeriod-1 {
			d := t.LoadGlobal(p.ledgerG)
			for !d.IsNull() {
				f.Set(1, d)
				t.Load(d, 1)
				d = t.Load(d, 0)
			}
		}
	})
	churn(t, p.scratch, 8)
	return false
}
