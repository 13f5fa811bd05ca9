// Package server is the multi-tenant leak-pruning daemon behind cmd/leakd:
// it hosts N isolated tenant VMs (one vm.VM + pruning policy + heap limit
// each) behind a request loop, governed by a global memory budget.
//
// The robustness machinery is the point of the package:
//
//   - admission control rejects new tenants and requests with typed errors
//     when the budget, the overcommit bound, or a tenant's state forbids
//     them — no request ever reaches a VM it should not;
//   - a budget-pressure controller walks a degradation ladder (tighten the
//     pruning threshold → force SELECT/PRUNE cycles → evict the worst
//     offender) long before the paper's §5 OOM cliff, publishing every
//     transition through internal/obs;
//   - tenants are crash-isolated: request handlers recover raw panics and
//     convert VM traps into typed per-tenant error responses, quarantine a
//     tenant after K consecutive faults, and restart a tenant session whose
//     VM exhausted memory — all without any sibling tenant observing a
//     difference (proven byte-for-byte by the live-set-hash isolation
//     tests);
//   - graceful shutdown drains in-flight requests against a deadline,
//     cancels stragglers at iteration boundaries, and runs a final
//     invariant audit per tenant.
package server

import (
	"errors"
	"fmt"
	"time"
)

// AdmissionError reports a tenant or request rejected at admission: the
// global budget or overcommit bound would be exceeded, the name collides,
// or the daemon is shedding load under pressure. Typed so clients can
// distinguish "try later" from "never".
type AdmissionError struct {
	// Tenant is the tenant the decision concerned ("" for daemon-wide).
	Tenant string
	// Reason is the machine-readable cause: "budget-exceeded",
	// "overcommit-exceeded", "duplicate-name", "draining",
	// "budget-pressure", or "invalid-config".
	Reason string
	// Detail elaborates for humans.
	Detail string
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("server: admission rejected for %q: %s (%s)", e.Tenant, e.Reason, e.Detail)
}

// TenantUnavailableError reports a request aimed at a tenant that exists
// but cannot serve: quarantined after repeated faults, mid-eviction, or
// already evicted.
type TenantUnavailableError struct {
	Tenant string
	State  TenantState
}

func (e *TenantUnavailableError) Error() string {
	return fmt.Sprintf("server: tenant %q unavailable (%s)", e.Tenant, e.State)
}

// UnknownTenantError reports a request aimed at a tenant the daemon has
// never admitted (or has fully evicted and forgotten).
type UnknownTenantError struct{ Tenant string }

func (e *UnknownTenantError) Error() string {
	return fmt.Sprintf("server: unknown tenant %q", e.Tenant)
}

// RequestPanicError is the crash-isolation boundary's product: a raw
// (non-VM) panic escaped a tenant request handler and was recovered at the
// request boundary instead of taking the daemon down.
type RequestPanicError struct {
	Tenant string
	Panic  string
}

func (e *RequestPanicError) Error() string {
	return fmt.Sprintf("server: tenant %q request panicked: %s", e.Tenant, e.Panic)
}

// WatchdogTimeoutError reports a request that exceeded the per-tenant
// watchdog deadline. The request keeps running to completion on its
// goroutine (a VM thread cannot be killed mid-operation), but the caller
// gets this error and the fault counts toward quarantine.
type WatchdogTimeoutError struct {
	Tenant  string
	Timeout time.Duration
}

func (e *WatchdogTimeoutError) Error() string {
	return fmt.Sprintf("server: tenant %q request exceeded the %v watchdog", e.Tenant, e.Timeout)
}

// RequestCancelledError reports a request cut short at an iteration
// boundary by the drain deadline (shutdown) or an eviction in progress.
// IterationsDone says how much work completed before the cut.
type RequestCancelledError struct {
	Tenant         string
	IterationsDone int
}

func (e *RequestCancelledError) Error() string {
	return fmt.Sprintf("server: tenant %q request cancelled after %d iterations (drain)", e.Tenant, e.IterationsDone)
}

// MaxRequestIters bounds a single request's iteration count at the
// request boundary. A request above it is a malformed client, not a big
// job: one million workload iterations is hours of single-tenant work,
// far past any watchdog deadline.
const MaxRequestIters = 1 << 20

// RequestValidationError reports a request rejected before it reached a
// tenant because its parameters are malformed (non-positive or absurdly
// large iters). Maps to HTTP 400; it never counts against the tenant.
type RequestValidationError struct {
	Tenant string
	// Iters is the rejected iteration count (0 when the value never
	// parsed as an integer — see Detail).
	Iters int
	// Detail elaborates for humans.
	Detail string
}

func (e *RequestValidationError) Error() string {
	return fmt.Sprintf("server: invalid request for tenant %q: %s", e.Tenant, e.Detail)
}

// QueueFullError reports a request shed at a concurrent pipeline's bounded
// queue: all K workers are busy and QueueDepth requests are already
// waiting. Maps to HTTP 429 — the client should back off and retry; the
// tenant is healthy, just saturated.
type QueueFullError struct {
	Tenant string
	// Depth is the configured queue bound that was full.
	Depth int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("server: tenant %q request queue full (depth %d)", e.Tenant, e.Depth)
}

// ErrNotAccepting is wrapped by the AdmissionError returned while the
// daemon is draining; errors.Is(err, ErrNotAccepting) spares clients the
// reason-string comparison.
var ErrNotAccepting = errors.New("server: draining, not accepting requests")

// IsAdmission reports whether err is an admission rejection.
func IsAdmission(err error) bool {
	var ae *AdmissionError
	return errors.As(err, &ae)
}
