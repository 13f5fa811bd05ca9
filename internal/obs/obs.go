// Package obs is the runtime's observability layer: a metrics registry
// (atomic counters, gauges, and fixed-bucket histograms with a Prometheus
// text exporter and a JSON snapshot) and an event tracer with one bounded,
// mutex-guarded sink and one track per emitting thread, which exports
// Chrome trace-event JSON loadable in Perfetto.
//
// The package is a leaf: it imports nothing from the rest of the runtime,
// so every layer (heap, gc, vm, offload, faultinject) can depend on it
// without cycles — the same discipline package faultinject follows.
//
// Everything is built around nil-safety so that disabled observability
// costs exactly one branch per instrumentation site and never allocates or
// reads the clock:
//
//   - a nil *Obs hands out a nil *Registry and a nil *Tracer;
//   - a nil *Registry hands out nil *Counter/*Gauge/*Histogram;
//   - nil metric methods (Inc, Add, Observe) and nil *Tracer methods are
//     no-ops.
//
// Components therefore store typed metric pointers unconditionally at
// construction time and call them unconditionally at the instrumentation
// site; when observability is off every such call is a single nil test.
// Timestamped sites (trace spans and instants) must additionally guard
// their time.Now with the same nil test, which Tracer.Now does internally.
package obs

// Obs bundles one metrics registry and one tracer. A nil *Obs is valid and
// means "observability disabled".
type Obs struct {
	reg *Registry
	tr  *Tracer
}

// New creates an enabled observability handle with a fresh registry and
// tracer.
func New() *Obs {
	return &Obs{reg: NewRegistry(), tr: NewTracer()}
}

// Registry returns the metrics registry (nil when o is nil).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the event tracer (nil when o is nil).
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tr
}
