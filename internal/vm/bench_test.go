package vm

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"leakpruning/internal/heap"
	"leakpruning/internal/obs"
)

// BenchmarkBarrierFastPath measures a reference load whose tag is clear —
// the common case whose cost Figure 6 bounds at a few percent.
func BenchmarkBarrierFastPath(b *testing.B) {
	v := New(Options{HeapLimit: 32 << 20, EnableBarriers: true, GCWorkers: 1})
	node := v.DefineClass("Node", 1, 0)
	err := v.RunThread("bench", func(t *Thread) {
		a := t.New(node)
		t.Store(a, 0, t.New(node))
		b.ResetTimer()
		for i := 0; i < b.N; i += 64 {
			t.Scope(func() {
				for j := 0; j < 64; j++ {
					t.Load(a, 0)
				}
			})
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBarrierColdPath measures the out-of-line body (§4.1): tag clear,
// CAS store-back, stale-counter reset. Each round re-arms the slot the way
// a collection would.
func BenchmarkBarrierColdPath(b *testing.B) {
	v := New(Options{HeapLimit: 32 << 20, EnableBarriers: true, GCWorkers: 1})
	node := v.DefineClass("Node", 1, 0)
	err := v.RunThread("bench", func(t *Thread) {
		a := t.New(node)
		tgt := t.New(node)
		t.Store(a, 0, tgt)
		src := v.heap.Get(a)
		b.ResetTimer()
		for i := 0; i < b.N; i += 64 {
			t.Scope(func() {
				for j := 0; j < 64; j++ {
					src.SetRef(0, heap.Ref(tgt).WithStale())
					t.Load(a, 0)
				}
			})
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// farRing is the node count of op=chase-far-region's ring.
const farRing = 256 << 10

// benchMutatorOp drives one mutator operation from `threads` concurrent
// Threads, splitting b.N across them (so ns/op stays per-operation). Each
// thread works its own object pair, so the measurement isolates the world
// protocol's cost rather than cache-line contention on shared objects. An op
// suffixed -region runs each batch of 64 inside one Thread.Region, as a
// workload iteration does.
func benchMutatorOp(b *testing.B, barriers, obsOn bool, op string, threads int) {
	held := strings.HasSuffix(op, "-region")
	op = strings.TrimSuffix(op, "-region")
	var o *obs.Obs
	if obsOn {
		o = obs.New()
	}
	v := New(Options{HeapLimit: 32 << 20, EnableBarriers: barriers, GCWorkers: 1, Obs: o})
	node := v.DefineClass("Node", 1, 0)
	scratch := v.DefineClass("Scratch", 0, 64)
	per := b.N / threads
	if per == 0 {
		per = 1
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := v.RunThread("bench", func(t *Thread) {
				a := t.New(node)
				t.Store(a, 0, t.New(node))
				batch := func(body func()) {
					t.Scope(func() {
						if held {
							t.Region(body)
						} else {
							body()
						}
					})
				}
				switch op {
				case "region":
					// The floor: an empty critical region, the two stores on
					// the state word every operation below also pays.
					for i := 0; i < per; i += 64 {
						batch(func() {
							for j := 0; j < 64; j++ {
								t.beginOp()
								t.endOp()
							}
						})
					}
				case "load":
					for i := 0; i < per; i += 64 {
						batch(func() {
							for j := 0; j < 64; j++ {
								t.Load(a, 0)
							}
						})
					}
				case "chase":
					// A dependent chase around a ring of six nodes: each
					// load's source is the previous load's result, so the
					// latency of every op is on the critical path, as in
					// pseudojbb's walks. op=load reloads one slot, so its
					// loads overlap.
					ring := []heap.Ref{a}
					for len(ring) < 6 {
						n := t.New(node)
						t.Store(ring[len(ring)-1], 0, n)
						ring = append(ring, n)
					}
					t.Store(ring[5], 0, a)
					r := a
					for i := 0; i < per; i += 64 {
						batch(func() {
							for j := 0; j < 64; j++ {
								r = t.Load(r, 0)
							}
						})
					}
				case "chase-far":
					// The same chase around a shuffled ring of farRing
					// nodes, whose table entries (16 MiB) are far larger
					// than a 2 MiB L2: almost every load misses, so the
					// entry's size and the cache lines it spans show. The
					// ring is built with the timer stopped (threads=1 only)
					// and is reachable from a alone.
					b.StopTimer()
					t.Scope(func() {
						ring := make([]heap.Ref, farRing)
						for i := range ring {
							ring[i] = t.New(node)
						}
						order := rand.New(rand.NewPCG(1, 2)).Perm(farRing)
						for i, o := range order {
							t.Store(ring[o], 0, ring[order[(i+1)%farRing]])
						}
						t.Store(a, 0, ring[order[0]])
					})
					b.StartTimer()
					r := t.Load(a, 0)
					for i := 0; i < per; i += 64 {
						batch(func() {
							for j := 0; j < 64; j++ {
								r = t.Load(r, 0)
							}
						})
					}
				case "store":
					tgt := t.Load(a, 0)
					for i := 0; i < per; i += 64 {
						batch(func() {
							for j := 0; j < 64; j++ {
								t.Store(a, 0, tgt)
							}
						})
					}
				case "new":
					for i := 0; i < per; i += 64 {
						batch(func() {
							for j := 0; j < 64; j++ {
								t.New(scratch)
							}
						})
					}
				}
			})
			if err != nil {
				b.Error(err)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkMutatorOps is the mutator fast-path matrix: Load/Store/New,
// barriers on and off, 1–8 mutator threads, with the observability layer
// detached and attached. op=region is a bare beginOp/endOp pair — the
// protocol's two locked instructions and nothing else — so the
// single-thread rows read as floor + work in the same run on the same box:
// Load adds no locked instruction to the floor, Store one (the slot), New
// one (publishing the birth into the context's pending word). The -region
// rows run the same operations inside a Thread.Region, where the pair is
// paid once per 64 operations and each operation only polls the stop flag;
// a birth there counts in plain words and adds none. op=chase-region
// is load-region with each load depending on the one before (a six-node
// ring, all in L1), so a call on the fast path shows in full;
// op=chase-far-region chases a shuffled ring of farRing nodes instead, so
// the cache misses on the object table show, and runs at one thread only.
// The multi-thread rows show whether distinct threads serialize; the
// obs=true rows bound what attaching metrics and the tracer costs the fast
// paths.
func BenchmarkMutatorOps(b *testing.B) {
	for _, op := range []string{"region", "load", "load-region", "chase-region", "chase-far-region", "store", "store-region", "new", "new-region"} {
		for _, barriers := range []bool{false, true} {
			for _, obsOn := range []bool{false, true} {
				for _, threads := range []int{1, 2, 4, 8} {
					if op == "chase-far-region" && threads > 1 {
						continue
					}
					name := fmt.Sprintf("op=%s/barriers=%v/obs=%v/threads=%d",
						op, barriers, obsOn, threads)
					b.Run(name, func(b *testing.B) {
						benchMutatorOp(b, barriers, obsOn, op, threads)
					})
				}
			}
		}
	}
}

// BenchmarkBarrierVariants compares the two Figure 6 code shapes on the
// fast path.
func BenchmarkBarrierVariants(b *testing.B) {
	for _, variant := range []BarrierVariant{BarrierConditional, BarrierUnconditional} {
		b.Run(variant.String(), func(b *testing.B) {
			v := New(Options{HeapLimit: 32 << 20, EnableBarriers: true, Barrier: variant, GCWorkers: 1})
			node := v.DefineClass("Node", 1, 0)
			err := v.RunThread("bench", func(t *Thread) {
				a := t.New(node)
				t.Store(a, 0, t.New(node))
				b.ResetTimer()
				for i := 0; i < b.N; i += 64 {
					t.Scope(func() {
						for j := 0; j < 64; j++ {
							t.Load(a, 0)
						}
					})
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

var hashSink uint64

// BenchmarkLiveSetHash measures the per-cycle fingerprint (HashLiveSet)
// over a heap of list nodes — two reference slots and a little scalar
// payload each, the shape the leak workloads retain — and reports it per
// live object, since that is how it scales inside a pause.
func BenchmarkLiveSetHash(b *testing.B) {
	const objects = 1 << 16
	reg := heap.NewRegistry()
	node := reg.Define("Node", 2, 16)
	h := heap.New(reg, 64<<20)
	var prev heap.Ref
	for i := 0; i < objects; i++ {
		r, err := h.Allocate(node)
		if err != nil {
			b.Fatal(err)
		}
		h.Get(r).SetRef(0, prev)
		prev = r
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = liveSetHash(h)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/objects, "ns/obj")
}

// BenchmarkRunThreadObs measures what a leakd request pays to exist as a
// VM thread with observability attached and nothing to trace: register,
// base frame, unregister. B/op is the point.
func BenchmarkRunThreadObs(b *testing.B) {
	v := New(Options{HeapLimit: 32 << 20, EnableBarriers: true, GCWorkers: 1, Obs: obs.New()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.RunThread("request", func(*Thread) {}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewParallel measures Thread.New from GOMAXPROCS goroutines, one
// Thread each, sharing one VM: what the allocation path costs when distinct
// threads could serialize on it. Run with -cpu 1,2,4; collections triggered
// by the allocation volume are part of the cost, as they are in a server.
func BenchmarkNewParallel(b *testing.B) {
	v := New(Options{HeapLimit: 32 << 20, EnableBarriers: true, GCWorkers: 1})
	scratch := v.DefineClass("Scratch", 0, 64)
	b.RunParallel(func(pb *testing.PB) {
		err := v.RunThread("bench", func(t *Thread) {
			for more := true; more; {
				t.Scope(func() {
					for j := 0; j < 64 && more; j++ {
						t.New(scratch)
						more = pb.Next()
					}
				})
			}
		})
		if err != nil {
			b.Error(err)
		}
	})
}

// BenchmarkRequestShapedAlloc is the leakd small-request shape: a thread
// that lives for one request, allocates 40 short-lived objects and exits.
// Every thread starts on the next shard, so after a few collections the
// free slots are spread over all of them.
func BenchmarkRequestShapedAlloc(b *testing.B) {
	v := New(Options{HeapLimit: 32 << 20, EnableBarriers: true, GCWorkers: 1})
	scratch := v.DefineClass("Scratch", 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := v.RunThread("request", func(t *Thread) {
			for j := 0; j < 40; j++ {
				t.New(scratch)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
