package main

import (
	"encoding/binary"
)

// Request sizes are fixed by the workload definitions: a small request is one
// workload iteration, a large one 200.
const (
	smallIters = 1
	largeIters = 200
)

// Per-client request counts at full scale. A quarter of each segment is
// large. The first warmupRequests are issued but not recorded.
const (
	requestsPerClient = 800
	warmupRequests    = 100
)

// Request is one scheduled call: which tenant, how many iterations.
type Request struct {
	Tenant int
	Iters  int
}

// ClientSchedule is one closed-loop client's request sequence.
type ClientSchedule struct {
	Warmup   []Request
	Measured []Request
}

// rng is splitmix64: tiny, seedable, and stable across Go releases, which
// math/rand's stream is not promised to be.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// segment builds n requests, exactly a quarter of them large and tenants
// dealt round-robin, then shuffles them. The mix is exact rather than drawn
// per request so that every seed schedules the same work: only the order, and
// with it which requests collide, depends on the seed.
func segment(r *rng, n, tenants int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{Tenant: i % tenants, Iters: smallIters}
		if i%4 == 3 {
			out[i].Iters = largeIters
		}
	}
	// Decouple size from tenant before shuffling the order: i%4 and
	// i%tenants are otherwise locked together when tenants is 4.
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i].Tenant, out[j].Tenant = out[j].Tenant, out[i].Tenant
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// buildSchedule derives every client's sequence from the seed alone. scale
// divides the request counts (1 = full size; tests use 50).
func buildSchedule(seed uint64, clients, tenants, scale int) []ClientSchedule {
	out := make([]ClientSchedule, clients)
	for c := range out {
		r := rng(seed*0x9e3779b97f4a7c15 + uint64(c) + 1)
		warm := max(warmupRequests/scale, 4)
		measured := max((requestsPerClient-warmupRequests)/scale, 8)
		out[c] = ClientSchedule{
			Warmup:   segment(&r, warm, tenants),
			Measured: segment(&r, measured, tenants),
		}
	}
	return out
}

// scheduleBytes serializes a schedule; two schedules are the same exactly
// when their bytes are.
func scheduleBytes(s []ClientSchedule) []byte {
	var b []byte
	put := func(reqs []Request) {
		b = binary.AppendUvarint(b, uint64(len(reqs)))
		for _, q := range reqs {
			b = binary.AppendUvarint(b, uint64(q.Tenant))
			b = binary.AppendUvarint(b, uint64(q.Iters))
		}
	}
	for _, c := range s {
		put(c.Warmup)
		put(c.Measured)
	}
	return b
}
