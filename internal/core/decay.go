package core

import (
	"leakpruning/internal/gc"
	"leakpruning/internal/heap"
)

// DefaultDecayPeriod is how many SELECT cycles pass between maxStaleUse
// decays under DecayPolicy.
const DefaultDecayPeriod = 8

// DecayPolicy is the paper's suggested extension for phased programs (§6):
// the default algorithm, plus a periodic decay of every edge type's
// maxStaleUse. JbbMod's Object[] → Order references are used on a long
// phase, which drives their maxStaleUse to ~5 and protects the order spine
// from pruning forever; decaying the value lets staleness re-accumulate
// past the guard between phases, trading some misprediction risk for
// coverage of phased behaviour.
type DecayPolicy struct {
	// Period is the number of SELECT cycles between decays
	// (DefaultDecayPeriod if zero).
	Period int
	// cycles counts SELECT cycles across Begin calls.
	cycles int
}

// Name returns "decay".
func (*DecayPolicy) Name() string { return "decay" }

// Begin starts a SELECT cycle, decaying the edge table first when the
// period has elapsed.
func (p *DecayPolicy) Begin(env Env) Cycle {
	period := p.Period
	if period <= 0 {
		period = DefaultDecayPeriod
	}
	p.cycles++
	if p.cycles%period == 0 {
		env.Edges.DecayMaxStaleUse()
	}
	return &decayCycle{inner: DefaultPolicy{}.Begin(env)}
}

// decayCycle delegates to the default algorithm's cycle.
type decayCycle struct {
	inner Cycle
}

func (c *decayCycle) Candidate(src, tgt heap.ClassID, stale uint8) bool {
	return c.inner.Candidate(src, tgt, stale)
}

func (c *decayCycle) AccountStaleBytes(src, tgt heap.ClassID, bytes uint64) {
	c.inner.AccountStaleBytes(src, tgt, bytes)
}

func (c *decayCycle) Finish(res gc.Result) (Selection, bool) {
	return c.inner.Finish(res)
}

var _ Policy = (*DecayPolicy)(nil)
