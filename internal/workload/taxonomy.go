package workload

import (
	"fmt"

	"leakpruning/internal/heap"
	"leakpruning/internal/vm"
)

// This file holds the taxonomy-driven trace corpus: four programs, one per
// structural leak family, written to stress a *mechanism* rather than to
// mimic a particular application. They complement the Table 1 analogues:
// each is registered with the per-policy outcomes the corpus tests pin
// down, and each is a record/replay fixture ('lp run -record', 'lp trace
// replay').

func init() {
	registerCorpus("collectionleak", TaxCollection, map[string]Outcome{
		"default":    OutcomeSurvives,
		"most-stale": OutcomeOOM, // prunes only the stalest sliver per cycle: too slow
		"indiv-refs": OutcomeSurvives,
		"off":        OutcomeOOM,
	}, func() Program { return newCollectionLeak() })
	registerCorpus("listenerleak", TaxListener, map[string]Outcome{
		"default":    OutcomeSurvives,
		"most-stale": OutcomeOOM,
		"indiv-refs": OutcomeSurvives,
		"off":        OutcomeOOM,
	}, func() Program { return newListenerLeak() })
	registerCorpus("cacheleak", TaxCache, map[string]Outcome{
		"default":    OutcomeSurvives,
		"most-stale": OutcomeOOM,
		"indiv-refs": OutcomeTrap, // prunes the stale-but-live seasonal set
		"off":        OutcomeOOM,
	}, func() Program { return newCacheLeak() })
	registerCorpus("threadlocalleak", TaxThreadLocal, map[string]Outcome{
		"default":    OutcomeSurvives,
		"most-stale": OutcomeSurvives,
		"indiv-refs": OutcomeSurvives,
		"off":        OutcomeOOM,
	}, func() Program { return newThreadLocalLeak() })
}

// ---------------------------------------------------------------------------
// CollectionLeak (collection-mishandling): a chunked vector the program
// keeps appending to. The application reads back only the chunk it just
// filled — it "clears" the collection by resetting its logical length and
// forgets that the chunks stay linked. All of the old growth is dead, so
// every pruning policy tolerates the leak: there are no stale-but-live
// structures to mispredict.

type collectionLeak struct {
	vector  heap.ClassID
	chunk   heap.ClassID
	elem    heap.ClassID
	payload heap.ClassID
	scratch heap.ClassID
	vecG    int
}

func newCollectionLeak() *collectionLeak { return &collectionLeak{} }

func (p *collectionLeak) Name() string { return "collectionleak" }
func (p *collectionLeak) Description() string {
	return "corpus/collection-mishandling: cleared-but-still-linked vector chunks (all growth dead)"
}
func (p *collectionLeak) DefaultHeap() uint64 { return 8 << 20 }

const (
	collChunkElems   = 16
	collPayloadBytes = 800
)

func (p *collectionLeak) Setup(t *vm.Thread) {
	v := t.VM()
	p.vector = v.DefineClass("ChunkedVector", 1, 64) // head chunk
	p.chunk = v.DefineClass("VectorChunk", 1+collChunkElems, 0)
	p.elem = v.DefineClass("VectorElem", 1, 32)
	p.payload = v.DefineClass("ElemPayload", 0, collPayloadBytes)
	p.scratch = v.DefineClass("CollScratch", 0, 64)
	p.vecG = v.AddGlobal()
	t.InFrame(1, func(f *vm.Frame) {
		vec := t.New(p.vector)
		f.Set(0, vec)
		t.StoreGlobal(p.vecG, vec)
	})
}

func (p *collectionLeak) Iterate(t *vm.Thread, iter int) bool { return held(t, iter, p.iterate) }

func (p *collectionLeak) iterate(t *vm.Thread, iter int) bool {
	t.InFrame(2, func(f *vm.Frame) {
		vec := t.LoadGlobal(p.vecG)
		f.Set(0, vec)
		chunk := t.New(p.chunk)
		f.Set(1, chunk)
		for j := 0; j < collChunkElems; j++ {
			elem := t.New(p.elem)
			t.Store(chunk, 1+j, elem)
			t.Store(elem, 0, t.New(p.payload))
		}
		// Prepend: the forgotten tail sinks, never to be loaded again.
		t.Store(chunk, 0, t.Load(vec, 0))
		t.Store(vec, 0, chunk)
		// The program consumes what it just appended (the live window is
		// exactly the newest chunk), then "clears" by dropping its index.
		for j := 0; j < collChunkElems; j++ {
			e := t.Load(chunk, 1+j)
			t.Load(e, 0)
		}
	})
	churn(t, p.scratch, 8)
	return false
}

// ---------------------------------------------------------------------------
// ListenerLeak (listener/observer): subscribers register with an event
// source and are never deregistered. Events are delivered only to the most
// recent listeners (the dispatcher walks the head of the list and stops),
// so the old tail is dead growth. The source also keeps a small directory
// of *live* subscriptions it revisits only rarely; the default algorithm's
// maxStaleUse machinery protects it while pruning the dead tail wholesale.
// The most-stale baseline reclaims only the stalest sliver per PRUNE and
// loses the race with the leak (OOM despite dozens of prunes).

type listenerLeak struct {
	source   heap.ClassID
	listener heap.ClassID
	closure  heap.ClassID
	dirEnt   heap.ClassID
	dirBlob  heap.ClassID
	scratch  heap.ClassID
	sourceG  int
	dirG     int
}

func newListenerLeak() *listenerLeak { return &listenerLeak{} }

func (p *listenerLeak) Name() string { return "listenerleak" }
func (p *listenerLeak) Description() string {
	return "corpus/listener-observer: never-deregistered listeners plus a rarely-revisited live directory"
}
func (p *listenerLeak) DefaultHeap() uint64 { return 8 << 20 }

const (
	listenersPerIter   = 8
	listenerStateBytes = 1600
	liveListeners      = 4 // events reach only this many recent listeners
	dirEntries         = 6
	dirTouchPeriod     = 160
)

func (p *listenerLeak) Setup(t *vm.Thread) {
	v := t.VM()
	p.source = v.DefineClass("EventSource", 1, 128) // listener list head
	p.listener = v.DefineClass("Listener", 2, 64)   // next, closure
	p.closure = v.DefineClass("ListenerClosure", 0, listenerStateBytes)
	p.dirEnt = v.DefineClass("SubscriptionDir", 2, 64) // next, blob
	p.dirBlob = v.DefineClass("DirBlob", 0, 256)
	p.scratch = v.DefineClass("ListenerScratch", 0, 64)
	p.sourceG = v.AddGlobal()
	p.dirG = v.AddGlobal()
	t.InFrame(2, func(f *vm.Frame) {
		src := t.New(p.source)
		f.Set(0, src)
		t.StoreGlobal(p.sourceG, src)
		// The subscription directory: a short live chain the maintenance
		// task walks every dirTouchPeriod iterations.
		var prev heap.Ref
		for i := 0; i < dirEntries; i++ {
			d := t.New(p.dirEnt)
			f.Set(1, d)
			t.Store(d, 1, t.New(p.dirBlob))
			if prev.IsNull() {
				t.StoreGlobal(p.dirG, d)
			} else {
				t.Store(prev, 0, d)
			}
			prev = d
		}
	})
}

func (p *listenerLeak) Iterate(t *vm.Thread, iter int) bool { return held(t, iter, p.iterate) }

func (p *listenerLeak) iterate(t *vm.Thread, iter int) bool {
	t.InFrame(2, func(f *vm.Frame) {
		src := t.LoadGlobal(p.sourceG)
		f.Set(0, src)
		// Register new listeners at the head; nobody ever deregisters.
		for j := 0; j < listenersPerIter; j++ {
			l := t.New(p.listener)
			f.Set(1, l)
			t.Store(l, 1, t.New(p.closure))
			t.Store(l, 0, t.Load(src, 0))
			t.Store(src, 0, l)
		}
		// Fire an event: the dispatcher visits only the newest listeners,
		// so the tail of the list goes permanently cold.
		cur := t.Load(src, 0)
		for j := 0; j < liveListeners && !cur.IsNull(); j++ {
			f.Set(1, cur)
			t.Load(cur, 1) // invoke the closure
			cur = t.Load(cur, 0)
		}
		// Rare maintenance: walk the live subscription directory.
		if iter%dirTouchPeriod == dirTouchPeriod-1 {
			d := t.LoadGlobal(p.dirG)
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

// ---------------------------------------------------------------------------
// CacheLeak (cache-without-eviction): a bucketed memoization cache that
// only ever inserts. Insertion links the new entry above the old bucket
// head without walking the chain, so buried entries go cold while staying
// reachable. A small hot set is re-read every iteration through a separate
// hot-list edge; a second "seasonal" set is re-read on a long period —
// live, but stale enough between touches for the baselines to prune.

type cacheLeak struct {
	cache   heap.ClassID
	entry   heap.ClassID
	value   heap.ClassID
	hotList heap.ClassID
	scratch heap.ClassID
	cacheG  int
	hotG    int
	seasonG int
}

func newCacheLeak() *cacheLeak { return &cacheLeak{} }

func (p *cacheLeak) Name() string { return "cacheleak" }
func (p *cacheLeak) Description() string {
	return "corpus/cache-without-eviction: insert-only bucket chains with hot and seasonal live sets"
}
func (p *cacheLeak) DefaultHeap() uint64 { return 8 << 20 }

const (
	cacheBuckets     = 8
	cacheInserts     = 10
	cacheValueBytes  = 1200
	cacheHotSlots    = 4
	cacheSeasonSlots = 4
	seasonPeriod     = 170
)

func (p *cacheLeak) Setup(t *vm.Thread) {
	v := t.VM()
	p.cache = v.DefineClass("Cache", cacheBuckets, 0)
	p.entry = v.DefineClass("CacheEntry", 2, 48) // next, value
	p.value = v.DefineClass("CacheValue", 0, cacheValueBytes)
	p.hotList = v.DefineClass("HotList", cacheHotSlots, 0)
	p.scratch = v.DefineClass("CacheScratch", 0, 64)
	p.cacheG = v.AddGlobal()
	p.hotG = v.AddGlobal()
	p.seasonG = v.AddGlobal()
	t.InFrame(2, func(f *vm.Frame) {
		c := t.New(p.cache)
		f.Set(0, c)
		t.StoreGlobal(p.cacheG, c)
		hot := t.New(p.hotList)
		f.Set(1, hot)
		t.StoreGlobal(p.hotG, hot)
		season := t.New(p.hotList)
		f.Set(1, season)
		t.StoreGlobal(p.seasonG, season)
		// Seed both live sets with entries that also sit in bucket chains.
		for i := 0; i < cacheHotSlots; i++ {
			t.Store(hot, i, p.insert(t, c, i))
		}
		for i := 0; i < cacheSeasonSlots; i++ {
			t.Store(season, i, p.insert(t, c, cacheHotSlots+i))
		}
	})
}

// insert links a fresh entry at the head of bucket b and returns it. The
// caller must hold the cache rooted.
func (p *cacheLeak) insert(t *vm.Thread, cache heap.Ref, b int) heap.Ref {
	b = b % cacheBuckets
	e := t.New(p.entry)
	t.InFrame(1, func(f *vm.Frame) {
		f.Set(0, e)
		t.Store(e, 1, t.New(p.value))
		t.Store(e, 0, t.Load(cache, b))
		t.Store(cache, b, e)
	})
	return e
}

func (p *cacheLeak) Iterate(t *vm.Thread, iter int) bool { return held(t, iter, p.iterate) }

func (p *cacheLeak) iterate(t *vm.Thread, iter int) bool {
	t.InFrame(2, func(f *vm.Frame) {
		c := t.LoadGlobal(p.cacheG)
		f.Set(0, c)
		// Misses: memoize new results that will never be asked for again.
		for j := 0; j < cacheInserts; j++ {
			p.insert(t, c, iter*cacheInserts+j)
		}
		// Hits: the hot set is consulted every iteration.
		hot := t.LoadGlobal(p.hotG)
		f.Set(1, hot)
		for i := 0; i < cacheHotSlots; i++ {
			e := t.Load(hot, i)
			t.Load(e, 1)
		}
		// The seasonal set is consulted only on a long period — live, but
		// deeply stale in between.
		if iter%seasonPeriod == seasonPeriod-1 {
			season := t.LoadGlobal(p.seasonG)
			f.Set(1, season)
			for i := 0; i < cacheSeasonSlots; i++ {
				e := t.Load(season, i)
				t.Load(e, 1)
			}
		}
	})
	churn(t, p.scratch, 8)
	return false
}

// ---------------------------------------------------------------------------
// ThreadLocalLeak (thread-local): a pool of worker threads, each holding a
// ThreadLocal map rooted by its stack. Every task appends task state to the
// serving worker's map chain and never removes it — the classic ThreadLocal
// leak, where per-thread values outlive the work they served. The map
// headers stay live (each worker touches its own header per task), the
// buried chain is dead growth. Pool threads never exit, so replay's ×N
// multiplication scales the thread count as well as the heap.

type threadLocalLeak struct {
	tlMap   heap.ClassID
	tlEntry heap.ClassID
	tlValue heap.ClassID
	scratch heap.ClassID

	workers []*vm.Thread
	maps    []heap.Ref
	mapG    []int
}

func newThreadLocalLeak() *threadLocalLeak { return &threadLocalLeak{} }

func (p *threadLocalLeak) Name() string { return "threadlocalleak" }
func (p *threadLocalLeak) Description() string {
	return "corpus/thread-local: pool workers whose ThreadLocal maps accumulate per-task state forever"
}
func (p *threadLocalLeak) DefaultHeap() uint64 { return 8 << 20 }

const (
	tlWorkers       = 4
	tlTasksPerIter  = 4
	tlValueBytes    = 560
	tlEntriesPerTsk = 3
)

func (p *threadLocalLeak) Setup(t *vm.Thread) {
	v := t.VM()
	p.tlMap = v.DefineClass("ThreadLocalMap", 1, 96) // entry chain head
	p.tlEntry = v.DefineClass("TLMapEntry", 2, 32)   // next, value
	p.tlValue = v.DefineClass("TaskState", 0, tlValueBytes)
	p.scratch = v.DefineClass("TLScratch", 0, 64)
	for i := 0; i < tlWorkers; i++ {
		w := v.NewThread(fmt.Sprintf("tl-worker-%d", i))
		// The frame comes first: New roots its result in the innermost
		// frame, and on a frameless thread the map would sit unrooted until
		// Set — a window in which another thread of the same VM (a replay
		// clone, a sibling pipeline worker) can run a collection.
		wf := w.PushFrame(1)
		m := w.New(p.tlMap)
		wf.Set(0, m) // the worker's stack roots its map, ThreadLocal-style
		g := v.AddGlobal()
		w.StoreGlobal(g, m) // the pool's registry also sees every map
		p.workers = append(p.workers, w)
		p.maps = append(p.maps, m)
		p.mapG = append(p.mapG, g)
	}
}

// Iterate stays per-op (no held region): it drives the pool's Threads from
// the calling goroutine.
func (p *threadLocalLeak) Iterate(t *vm.Thread, iter int) bool {
	// Dispatch tasks round-robin over the pool. Each worker performs its
	// own heap traffic on its own vm thread (and, when recording, its own
	// trace stream).
	for task := 0; task < tlTasksPerIter; task++ {
		w := p.workers[(iter*tlTasksPerIter+task)%tlWorkers]
		g := p.mapG[(iter*tlTasksPerIter+task)%tlWorkers]
		w.InFrame(2, func(f *vm.Frame) {
			m := w.LoadGlobal(g)
			f.Set(0, m)
			for j := 0; j < tlEntriesPerTsk; j++ {
				e := w.New(p.tlEntry)
				f.Set(1, e)
				w.Store(e, 1, w.New(p.tlValue))
				w.Store(e, 0, w.Load(m, 0))
				w.Store(m, 0, e)
			}
			// The task reads back only what it just wrote; older entries
			// from previous tasks are never consulted again.
			e := w.Load(m, 0)
			for j := 0; j < tlEntriesPerTsk && !e.IsNull(); j++ {
				f.Set(1, e)
				w.Load(e, 1)
				e = w.Load(e, 0)
			}
		})
	}
	churn(t, p.scratch, 8)
	return false
}
