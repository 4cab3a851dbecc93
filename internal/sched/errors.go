package sched

import (
	"errors"
	"fmt"

	"detournet/internal/core"
)

// Failure taxonomy: executors classify errors so the scheduler can
// react per class instead of treating every failure alike —
//
//   - transient: the route is fine, the attempt was unlucky (a reset
//     connection, an injected 5xx, throttling past the SDK's patience).
//     Retry the same route with backoff; a checkpointed executor
//     resumes instead of restarting.
//   - route-down: the path itself is dead (dial refused, no route).
//     Quarantine the route for the fleet and fail over immediately,
//     carrying the checkpoint to the new route.
//   - provider-down: the provider front-end is erroring (503). No
//     route helps; wait it out with backoff and leave the route cache
//     alone — quarantine is for route-level failures only.
//
// Untyped errors keep the legacy behavior (route-level counting with
// a fallback to direct after two detour failures), so executors that don't classify are
// unaffected.
var (
	// ErrTransient tags a retryable failure of a healthy route.
	ErrTransient = errors.New("sched: transient failure")
	// ErrRouteDown tags a failure of the route itself.
	ErrRouteDown = errors.New("sched: route down")
	// ErrProviderDown tags a provider-side outage affecting all routes.
	ErrProviderDown = errors.New("sched: provider down")
)

// FailureClass is the scheduler-facing classification of an error.
type FailureClass int

const (
	// FailUnknown is an untyped error (legacy handling).
	FailUnknown FailureClass = iota
	// FailTransient retries the same route.
	FailTransient
	// FailRouteDown quarantines the route and fails over.
	FailRouteDown
	// FailProviderDown waits out the outage without blaming the route.
	FailProviderDown
	// FailStall is a gray failure: the watchdog aborted a transfer that
	// was serving no errors but crawling below its adaptive floor. The
	// scheduler treats it as route-down-lite — fail over immediately,
	// checkpoint intact, without consuming a MaxAttempts slot — because
	// the stalled attempt produced useful progress and blame belongs to
	// the path, not the job.
	FailStall
	// FailQuota is storage exhaustion at the provider account (a 507):
	// a property of the destination, not of any route, so no failover
	// helps and no route deserves blame. The scheduler reclaims
	// abandoned upload sessions, retries after the provider's hint,
	// spills to an allowed alternate provider, and only then parks the
	// job with a typed *QuotaError.
	FailQuota
)

func (c FailureClass) String() string {
	switch c {
	case FailTransient:
		return "transient"
	case FailRouteDown:
		return "route-down"
	case FailProviderDown:
		return "provider-down"
	case FailStall:
		return "stall"
	case FailQuota:
		return "quota"
	default:
		return "unknown"
	}
}

// Classify maps an error onto the taxonomy via errors.Is, so wrapped
// chains classify correctly.
func Classify(err error) FailureClass {
	switch {
	case errors.Is(err, core.ErrStall):
		return FailStall
	case errors.Is(err, core.ErrQuotaExhausted):
		return FailQuota
	case errors.Is(err, ErrRouteDown):
		return FailRouteDown
	case errors.Is(err, ErrProviderDown):
		return FailProviderDown
	case errors.Is(err, ErrTransient):
		return FailTransient
	default:
		return FailUnknown
	}
}

// Overload taxonomy: typed rejections from admission control and load
// shedding, distinct from the failure taxonomy above — these mean "the
// scheduler refused the work", not "the transfer failed".
var (
	// ErrQueueFull reports a Submit rejected because the bounded queue
	// (or the tenant's quota, see ErrTenantQuota) is at capacity.
	ErrQueueFull = errors.New("sched: queue full")
	// ErrTenantQuota reports a Submit rejected because the tenant's
	// share of the queue is exhausted; errors.Is also matches
	// ErrQueueFull, so callers can treat both as backpressure.
	ErrTenantQuota = errors.New("sched: tenant queue quota exceeded")
	// ErrShed reports a job dropped by CoDel-style queue-delay shedding;
	// the concrete error is a *ShedError carrying a retry-after hint.
	ErrShed = errors.New("sched: shed by overload control")
)

// ShedError is the typed fail-fast outcome of a CoDel shed: the queue's
// standing delay exceeded its target, so the job was dropped at dequeue
// instead of running hopelessly late. errors.Is matches ErrShed.
type ShedError struct {
	// RetryAfter advises, in scheduler-clock seconds, how long the
	// caller should wait before resubmitting — the queue's current
	// smoothed delay, i.e. roughly when today's backlog will have
	// drained.
	RetryAfter float64
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("sched: shed by overload control (retry after %.1fs)", e.RetryAfter)
}

func (e *ShedError) Is(target error) bool { return target == ErrShed }

// ErrRetryBudget reports a job parked because its provider's retry
// token bucket ran dry — the health layer's defense against retry
// storms amplifying a brownout into a metastable failure. The concrete
// error is a *BudgetError carrying a retry-after hint.
var ErrRetryBudget = errors.New("sched: provider retry budget exhausted")

// BudgetError is the typed outcome of a retry denied by the provider's
// health-layer retry budget: the job fails fast with its checkpoint
// accounting intact rather than spending another attempt against a
// provider whose failures have outrun its successes. errors.Is matches
// ErrRetryBudget.
type BudgetError struct {
	// Provider is the bucket that ran dry.
	Provider string
	// RetryAfter advises, in scheduler-clock seconds, how long to wait
	// before resubmitting — long enough for in-flight successes to earn
	// tokens back.
	RetryAfter float64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sched: retry budget exhausted for provider %s (retry after %.1fs)", e.Provider, e.RetryAfter)
}

func (e *BudgetError) Is(target error) bool { return target == ErrRetryBudget }

// QuotaError is the typed terminal outcome of provider storage
// exhaustion the scheduler could not mitigate: session reclaim freed
// nothing usable, the retry after the provider's hint still answered
// 507, and no allowed alternate provider had room. The job parks with
// its checkpoint intact; errors.Is matches core.ErrQuotaExhausted, so
// callers distinguish "the account is full" from any transport
// failure.
type QuotaError struct {
	// Provider is the account that is out of storage.
	Provider string
	// RetryAfter is the provider's park hint, in scheduler-clock
	// seconds — when quota reclamation or deletions might have freed
	// space.
	RetryAfter float64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("sched: storage quota exhausted for provider %s (retry after %.1fs)", e.Provider, e.RetryAfter)
}

func (e *QuotaError) Is(target error) bool { return target == core.ErrQuotaExhausted }

// Transient tags err as a transient failure.
func Transient(err error) error { return taggedError{tag: ErrTransient, err: err} }

// RouteDown tags err as a route-level failure.
func RouteDown(err error) error { return taggedError{tag: ErrRouteDown, err: err} }

// ProviderDown tags err as a provider-side outage.
func ProviderDown(err error) error { return taggedError{tag: ErrProviderDown, err: err} }

// Quota tags err as provider storage exhaustion (classifies FailQuota).
func Quota(err error) error { return taggedError{tag: core.ErrQuotaExhausted, err: err} }

// taggedError couples a taxonomy sentinel with the underlying cause;
// errors.Is matches both.
type taggedError struct {
	tag error
	err error
}

func (t taggedError) Error() string        { return t.tag.Error() + ": " + t.err.Error() }
func (t taggedError) Is(target error) bool { return target == t.tag }
func (t taggedError) Unwrap() error        { return t.err }
