// Package offload implements the Melt/LeakSurvivor-style leak-tolerance
// baseline the paper compares against (§6, §7): instead of *reclaiming*
// predicted-dead objects, move highly stale objects to disk. The prediction
// does not have to be perfect — a mispredicted object is simply faulted
// back in when the program touches it — but the approach consumes disk
// without bound, and "all will eventually exhaust disk space and crash".
//
// The controller runs after full-heap collections: once the heap is nearly
// full it moves the stalest objects out (staleness level by level, the
// "most stale" prediction that Table 2 attributes to these systems) until
// the heap drops below a comfort threshold or the disk budget is gone.
package offload

import (
	"errors"
	"sync/atomic"
	"time"

	"leakpruning/internal/faultinject"
	"leakpruning/internal/heap"
	"leakpruning/internal/obs"
)

// DefaultDiskFactor sizes the disk budget relative to the heap when no
// explicit limit is configured.
const DefaultDiskFactor = 4

// Config parameterizes the offloader.
type Config struct {
	// DiskLimit is the simulated disk budget in bytes.
	DiskLimit uint64
	// NearlyFullFraction triggers offloading after a collection (default
	// 0.9, matching leak pruning's SELECT threshold for comparability).
	NearlyFullFraction float64
	// TargetFraction is the post-offload heap fullness goal (default 0.7).
	TargetFraction float64
	// MinStale is the minimum staleness an object needs to be moved
	// (default 2, the same bar the pruning candidates use).
	MinStale uint8
}

func (c Config) withDefaults() Config {
	if c.NearlyFullFraction == 0 {
		c.NearlyFullFraction = 0.9
	}
	if c.TargetFraction == 0 {
		c.TargetFraction = 0.7
	}
	if c.MinStale == 0 {
		c.MinStale = 2
	}
	return c
}

// Stats summarizes the offloader's activity.
type Stats struct {
	Rounds        uint64 // post-GC offload passes that moved something
	BytesOffload  uint64 // cumulative bytes moved out
	ObjectsMoved  uint64
	DiskFullHits  uint64 // offload attempts rejected by the disk budget
	BytesFaultIn  uint64 // cumulative bytes moved back by accesses
	ObjectsFaults uint64

	// Degradation counters for simulated disk I/O failures.
	WriteFaults  uint64 // individual failed write attempts
	WriteRetries uint64 // failed writes retried with backoff
	KeptInHeap   uint64 // objects left resident after write retries ran out
	ReadFaults   uint64 // individual failed read attempts
	ReadRetries  uint64 // failed reads retried with backoff
	ReadAborts   uint64 // fault-ins abandoned after read retries ran out
}

// Disk I/O retry policy: a failed read or write is retried with capped
// exponential backoff. The backoff is real (time.Sleep) but microsecond-
// scale, so injected fault storms stay cheap in tests while still modeling
// the retry latency a real runtime would pay.
const (
	maxIOAttempts  = 4
	backoffInitial = time.Microsecond
	backoffCap     = 64 * time.Microsecond
)

// errWriteFailed is the internal sentinel for a write whose retries ran
// out; AfterGC converts it into the keep-in-heap fallback.
var errWriteFailed = errors.New("offload: simulated disk write failed")

// Controller owns the offload policy for one heap. Offload passes run
// inside stop-the-world sections (plain counters); fault-ins run on the
// mutator path where threads interleave, so the read-side counters are
// atomics folded into the Stats snapshot.
type Controller struct {
	cfg   Config
	stats Stats
	inj   *faultinject.Injector

	objectsFaults atomic.Uint64
	bytesFaultIn  atomic.Uint64
	readFaults    atomic.Uint64
	readRetries   atomic.Uint64
	readAborts    atomic.Uint64

	// Observability (nil when disabled; all methods nil-safe).
	obsTrace        *obs.Tracer
	obsWriteRetries *obs.Counter
	obsReadRetries  *obs.Counter
	obsReadAborts   *obs.Counter
	obsKept         *obs.Counter
}

// New creates an offload controller.
func New(cfg Config) *Controller {
	return &Controller{cfg: cfg.withDefaults()}
}

// SetFaultInjector arms the OffloadWriteFault / OffloadReadFault injection
// points on this controller's simulated disk.
func (c *Controller) SetFaultInjector(inj *faultinject.Injector) { c.inj = inj }

// SetObs attaches retry/abort counters and trace instants for the
// simulated disk. Write-side events fire inside stop-the-world sections
// and read-side events on the mutator slow path; both use the tracer's
// locked Emit, whose holder never blocks, so neither can deadlock the
// safepoint barrier.
func (c *Controller) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	reg := o.Registry()
	c.obsWriteRetries = reg.NewCounter("lp_offload_write_retries_total", "failed disk writes retried with backoff")
	c.obsReadRetries = reg.NewCounter("lp_offload_read_retries_total", "failed disk reads retried with backoff")
	c.obsReadAborts = reg.NewCounter("lp_offload_read_aborts_total", "fault-ins abandoned after read retries ran out")
	c.obsKept = reg.NewCounter("lp_offload_kept_in_heap_total", "objects left resident after write retries ran out")
	c.obsTrace = o.Tracer()
}

// Config returns the effective configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns activity counters.
func (c *Controller) Stats() Stats {
	s := c.stats
	s.ObjectsFaults = c.objectsFaults.Load()
	s.BytesFaultIn = c.bytesFaultIn.Load()
	s.ReadFaults = c.readFaults.Load()
	s.ReadRetries = c.readRetries.Load()
	s.ReadAborts = c.readAborts.Load()
	return s
}

// AfterGC runs one offload pass if the heap is still nearly full after a
// collection. It moves live objects out stalest-first (level 7 down to
// MinStale) until the heap reaches the target fraction or nothing movable
// remains. It returns the bytes moved. Must run stop-the-world.
func (c *Controller) AfterGC(h *heap.Heap) uint64 {
	st := h.Stats()
	if st.Fullness() <= c.cfg.NearlyFullFraction {
		return 0
	}
	target := uint64(c.cfg.TargetFraction * float64(st.Limit))
	var moved uint64
	diskFull := false
	for level := uint8(heap.MaxStale); level >= c.cfg.MinStale && !diskFull; level-- {
		h.ForEach(func(id heap.ObjectID, obj *heap.Object) {
			if diskFull || obj.IsOffloaded() || h.Stale(obj) != level {
				return
			}
			if h.Stats().BytesUsed <= target {
				return
			}
			switch err := c.writeOut(h, id); err {
			case nil:
				moved += obj.Size()
				c.stats.ObjectsMoved++
			case heap.ErrDiskFull:
				c.stats.DiskFullHits++
				diskFull = true
			case errWriteFailed:
				// Keep-in-heap fallback: the object stays resident and the
				// pass moves on. Nothing is lost — the next nearly-full
				// collection will try it again.
				c.stats.KeptInHeap++
				c.obsKept.Inc()
			}
		})
		if h.Stats().BytesUsed <= target {
			break
		}
		if level == 0 {
			break
		}
	}
	if moved > 0 {
		c.stats.Rounds++
		c.stats.BytesOffload += moved
	}
	return moved
}

// writeOut performs one object's disk write, retrying injected write
// faults with capped exponential backoff before giving up with
// errWriteFailed. The real Offload call runs only once the simulated
// device stops faulting, so heap and disk accounting never see a partial
// write.
func (c *Controller) writeOut(h *heap.Heap, id heap.ObjectID) error {
	backoff := backoffInitial
	for attempt := 1; ; attempt++ {
		if !c.inj.Should(faultinject.OffloadWriteFault) {
			return h.Offload(id)
		}
		c.stats.WriteFaults++
		if attempt == maxIOAttempts {
			return errWriteFailed
		}
		c.stats.WriteRetries++
		c.obsWriteRetries.Inc()
		if tr := c.obsTrace; tr != nil {
			tr.Emit(obs.Instant("offload.write-retry", "offload", tr.Now(), 0, obs.A("attempt", int64(attempt))))
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > backoffCap {
			backoff = backoffCap
		}
	}
}

// PrepareFaultIn simulates the disk read that precedes a fault-in,
// retrying injected read faults with the same capped backoff as writes.
// It returns the number of attempts consumed and whether the read
// ultimately succeeded; on failure the caller must surface a typed error —
// unlike writes, a failed read has no fallback, because the object's bytes
// exist only on disk.
func (c *Controller) PrepareFaultIn() (attempts int, ok bool) {
	backoff := backoffInitial
	for attempt := 1; ; attempt++ {
		if !c.inj.Should(faultinject.OffloadReadFault) {
			return attempt, true
		}
		c.readFaults.Add(1)
		if attempt == maxIOAttempts {
			c.readAborts.Add(1)
			c.obsReadAborts.Inc()
			return attempt, false
		}
		c.readRetries.Add(1)
		c.obsReadRetries.Inc()
		if tr := c.obsTrace; tr != nil {
			tr.Emit(obs.Instant("offload.read-retry", "offload", tr.Now(), 0, obs.A("attempt", int64(attempt))))
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > backoffCap {
			backoff = backoffCap
		}
	}
}

// RecordFault accounts one fault-in of size bytes.
func (c *Controller) RecordFault(size uint64) {
	c.objectsFaults.Add(1)
	c.bytesFaultIn.Add(size)
}
