package vm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leakpruning/internal/faultinject"
	"leakpruning/internal/obs"
)

// Thread safepoint states (Thread.state).
const (
	threadSafe    uint32 = 0 // at a safepoint: outside any mutator critical region
	threadRunning uint32 = 1 // inside a mutator critical region
)

// world is the VM's mutator/collector synchronization, the safepoint
// protocol: each Thread carries an atomic state word, mutator operations
// enter and leave a critical region with two uncontended stores on that
// thread-local word (each Go atomic store is an XCHG on amd64; the stop-flag
// test between them is a plain load), and the collector's stop-the-world
// performs a ragged barrier: it raises a global stop flag and waits until
// every registered thread is observed at a safepoint. Threads that notice
// the flag park on a condition variable until the world restarts.
//
// A per-op thread pays the pair on every operation: it may be abandoned
// between operations without ever exiting (Mckoi's workers, one goroutine
// driving several Threads, a RunThread body that calls Collect) and must not
// hold up a stop. A thread inside Thread.Region pays it once per region: its
// operations only load the stop flag, and it reaches its safepoint by parking
// at the next one (see Region for the contract that makes that sound).
//
// stwOwner serializes stop-the-world sections (and VM-level operations
// that must merely exclude collections); stop is the Dekker-style flag
// mutators test after publishing their state word (0 or 1, a uint32 read
// with atomic.LoadUint32 so beginOp stays inlinable); parkMu/parkCond park
// mutators that observed stop until the world restarts (parked mirrors
// stop under parkMu for the condvar).
type world struct {
	stwOwner sync.Mutex
	stop     uint32
	parkMu   sync.Mutex
	parked   bool
	parkCond *sync.Cond
}

func (w *world) init() {
	w.parkCond = sync.NewCond(&w.parkMu)
}

// stopTheWorld brings every mutator thread to a safepoint and returns with
// the exclusive right to mutate the heap, the roots, and the controller.
// Pair with startTheWorld (callers on throwing paths defer it).
//
// The stop is a ragged barrier: after raising the stop flag the
// collector waits for each registered thread individually; threads reach
// their safepoints at different times (or are already there — a thread
// blocked outside the VM parks on first contact instead). Soundness
// argument: the mutator publishes state=running and THEN tests stop, while
// the collector publishes stop and THEN reads state — with Go's
// sequentially consistent atomics, either the mutator sees stop (and backs
// off to its safepoint) or the collector sees running (and waits for the
// region to end), never neither.
func (v *VM) stopTheWorld() {
	// Time-to-stop observation is gated on the histogram handle so the
	// disabled path never reads the clock.
	timed := v.obsStopNs != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	v.world.stwOwner.Lock()
	v.world.raiseStop()
	if v.inj.Should(faultinject.SafepointStall) {
		safepointStall()
	}
	v.awaitSafepoints()
	if timed {
		v.observeStop(time.Since(t0))
	}
}

// handshake is stopTheWorld for a reader rather than a collection: it
// brings every thread to a safepoint so the caller may read what threads own
// between safepoints (Stats and the per-thread operation counters), but it is
// not a pause — nothing is observed into lp_safepoint_stop_ns, no stw.stop
// span is emitted, and no fault is injected, so traces and injection
// sequences are the same whether or not anyone asked. Pair with
// startTheWorld.
func (v *VM) handshake() {
	v.world.stwOwner.Lock()
	v.world.raiseStop()
	v.awaitSafepoints()
}

// raiseStop publishes the stop flag (and its condvar mirror). Caller holds
// stwOwner.
func (w *world) raiseStop() {
	w.parkMu.Lock()
	w.parked = true
	w.parkMu.Unlock()
	atomic.StoreUint32(&w.stop, 1)
}

// awaitSafepoints is the ragged barrier: it returns once every thread
// registered when it looked has been observed at a safepoint. Caller has
// raised the stop flag. A thread registered later cannot have entered a
// critical region — its first beginOp sees the flag.
func (v *VM) awaitSafepoints() {
	v.threadMu.Lock()
	threads := make([]*Thread, 0, len(v.threads))
	for t := range v.threads {
		threads = append(threads, t)
	}
	v.threadMu.Unlock()
	for _, t := range threads {
		for spins := 0; t.state.Load() != threadSafe; spins++ {
			if spins < 128 {
				runtime.Gosched()
			} else {
				time.Sleep(10 * time.Microsecond)
			}
		}
	}
}

// observeStop records one completed time-to-stop: the latency histogram
// plus a trace span covering the ragged barrier. Runs with the world
// stopped, so the locked Emit is uncontended. Only called when v.obsStopNs
// is non-nil.
func (v *VM) observeStop(d time.Duration) {
	ns := d.Nanoseconds()
	v.obsStopNs.Observe(uint64(ns))
	if tr := v.obsTracer; tr != nil {
		tr.Emit(obs.Span("stw.stop", "safepoint", tr.Now()-ns, ns, 0))
	}
}

// startTheWorld releases the stop begun by stopTheWorld and wakes every
// parked mutator thread.
func (v *VM) startTheWorld() {
	w := &v.world
	atomic.StoreUint32(&w.stop, 0)
	w.parkMu.Lock()
	w.parked = false
	w.parkCond.Broadcast()
	w.parkMu.Unlock()
	w.stwOwner.Unlock()
}

// lockOutSTW blocks stop-the-world sections (but not mutator threads) for
// the duration of a VM-level operation that has no Thread of its own —
// AddGlobal, SetFinalizer, PruneEvents — by holding the STW owner mutex,
// which collections also acquire.
func (v *VM) lockOutSTW() { v.world.stwOwner.Lock() }

// unlockOutSTW releases lockOutSTW.
func (v *VM) unlockOutSTW() { v.world.stwOwner.Unlock() }

// beginOp enters a mutator critical region: between beginOp and endOp the
// thread may read and write heap objects, its own frames, the globals and
// every Thread field the protocol orders (DESIGN.md "Safepoint protocol"
// lists them), and no stop-the-world can be in progress. The fast path is
// one atomic store to the thread's own state word — the region's first
// locked instruction — and a load of the global stop flag; only when a stop
// is pending does the thread take the slow parking path. A held thread
// (Region) is already running and skips the store: its operation is the
// flag load alone, a safepoint poll.
//
// Critical regions do not nest, and every path out of one that blocks or
// throws — a collection, a fault-in, a trap — must pass through suspend
// before the region's owner blocks or throws.
//
// beginOp, endOp and root must stay inlinable (make bench-smoke greps the
// compiler's -m output): the flag is reached through t.stop, a *uint32,
// because going through t.vm.world or an atomic.Bool costs the inliner more
// than its budget.
func (t *Thread) beginOp() {
	if !t.held {
		t.state.Store(threadRunning)
	}
	if atomic.LoadUint32(t.stop) != 0 {
		t.beginOpSlow()
	}
}

// endOp leaves the critical region: one atomic store to the thread's own
// state word, the region's second and last locked instruction — none when
// the thread is held, whose region ends with Region.
func (t *Thread) endOp() {
	if !t.held {
		t.state.Store(threadSafe)
	}
}

// suspend leaves the critical region ahead of a path that blocks or throws:
// it clears held and stores safe whether or not the thread was held, so a
// trapping thread is at its safepoint exactly as a per-op one is. It reports
// whether the thread was held, for the paths that return and resume. A
// held thread publishes the births its region counted first, while it
// still holds the region, so HeapStats sees them once it is safe. A per-op
// thread published each birth in its New, and may be safe already (New's
// collect runs after endOp), when a stopper may be folding its context: it
// must not touch the context here.
func (t *Thread) suspend() (held bool) {
	held = t.held
	if held {
		t.alloc.Publish()
		t.held = false
	}
	t.state.Store(threadSafe)
	return held
}

// resume re-enters the held region suspend left.
func (t *Thread) resume() {
	t.beginOp()
	t.held = true
}

// beginOpSlow is beginOp's parking path: back off to the safepoint, wait
// for the world to restart, and retry the enter protocol (a back-to-back
// collection may have re-raised the flag). A held thread parks here too,
// between two of its operations, and returns still held; it publishes its
// region's births before its first safe store, while the stopper is still
// waiting for it and so cannot be folding its context. A per-op thread
// published at the end of its last operation and has been safe since: the
// stopper may be folding its context right now, so it must not touch it.
//
//go:noinline
func (t *Thread) beginOpSlow() {
	w := &t.vm.world
	if t.held {
		t.alloc.Publish()
	}
	for {
		t.state.Store(threadSafe)
		if t.vm.inj.Should(faultinject.SafepointStall) {
			safepointStall()
		}
		w.parkMu.Lock()
		for w.parked {
			w.parkCond.Wait()
		}
		w.parkMu.Unlock()
		t.state.Store(threadRunning)
		if atomic.LoadUint32(&w.stop) == 0 {
			return
		}
	}
}

// safepointStall is the SafepointStall injection body: a semantics-free
// delay (scheduler yields) inserted either in the collector right after it
// raises the stop flag — a world that is slow to stop — or in a mutator
// right before it parks — a thread that is slow to reach its safepoint.
// Both stretch the ragged barrier's vulnerable window without changing any
// observable result, so the fault-matrix row built on it is
// equivalence-checked against the fault-free control.
func safepointStall() {
	for i := 0; i < 64; i++ {
		runtime.Gosched()
	}
}
