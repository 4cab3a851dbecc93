package sched

import (
	"errors"
	"fmt"
	"testing"

	"detournet/internal/bgppol"
	"detournet/internal/core"
	"detournet/internal/httpsim"
	"detournet/internal/transport"
)

// TestClassifyExecErrTable pins every branch of the executor's error
// classifier: the first-hand sentinels, the provider status classes,
// and the strings agent-side errors are flattened to. Each row also
// checks that the classified error still wraps its cause, and reads the
// Retry-After hint the scheduler would floor its backoff with.
func TestClassifyExecErrTable(t *testing.T) {
	status := func(code int, retryAfter float64) error {
		return &httpsim.StatusError{Status: code, Body: "x", RetryAfter: retryAfter}
	}
	agent := func(msg string) error { return fmt.Errorf("sched: execute j via Direct: agent: %s", msg) }
	cases := []struct {
		name string
		err  error
		want FailureClass
		hint float64
	}{
		{"stall", fmt.Errorf("wd: %w", core.ErrStall), FailStall, 0},
		// The watchdog's abort shows as killed flows; the stall is the cause.
		{"stall before reset", fmt.Errorf("%w after %w", core.ErrStall, transport.ErrReset), FailStall, 0},
		{"reset", fmt.Errorf("hop1: %w", transport.ErrReset), FailTransient, 0},
		{"refused", fmt.Errorf("dial: %w", transport.ErrRefused), FailRouteDown, 0},
		{"integrity", fmt.Errorf("resume: %w", core.ErrIntegrity), FailTransient, 0},
		{"park exhausted", fmt.Errorf("parked 90s: %w", core.ErrNoRoute), FailTransient, 0},
		{"bgp blackhole", bgppol.ErrBlackhole, FailRouteDown, 0},
		{"bgp loop", bgppol.ErrLoop, FailRouteDown, 0},
		{"bgp no route", bgppol.ErrNoRoute, FailRouteDown, 0},

		{"status 507", status(httpsim.StatusInsufficientStorage, 12), FailQuota, 12},
		{"status 507 no hint", status(httpsim.StatusInsufficientStorage, 0), FailQuota, 0},
		{"status 503", status(httpsim.StatusServiceUnavailable, 30), FailProviderDown, 0},
		{"status 500", status(httpsim.StatusInternalServerError, 30), FailTransient, 0},
		{"status 502", status(502, 0), FailTransient, 0},
		{"status 429", status(httpsim.StatusTooManyRequests, 5), FailTransient, 5},
		{"status 429 capped", status(httpsim.StatusTooManyRequests, 9000), FailTransient, maxRetryAfterFloor},
		{"status 404", status(404, 5), FailUnknown, 0},
		{"status 401", status(401, 0), FailUnknown, 0},
		{"wrapped status 429", fmt.Errorf("sdk: put: %w", status(httpsim.StatusTooManyRequests, 7)), FailTransient, 7},

		{"agent no route", agent("no route to host"), FailRouteDown, 0},
		{"agent blackhole", agent("blackhole"), FailRouteDown, 0},
		{"agent ttl", agent("ttl expired"), FailRouteDown, 0},
		{"agent border", agent("no border router"), FailRouteDown, 0},
		{"agent draining", agent("dtn draining"), FailRouteDown, 0},
		// A full DTN staging disk fails the detour path, not the job.
		{"agent no space", agent("no space left on staging disk"), FailRouteDown, 0},
		{"agent no space over 507", agent("status 507: no space"), FailRouteDown, 0},
		{"agent 507", agent("httpsim: status 507: full"), FailQuota, 0},
		{"agent quota", agent("quota exceeded"), FailQuota, 0},
		{"agent storage", agent("insufficient storage"), FailQuota, 0},
		{"agent 503", agent("httpsim: status 503: down"), FailProviderDown, 0},
		{"agent refused", agent("connection refused"), FailRouteDown, 0},
		{"agent reset", agent("connection reset"), FailTransient, 0},
		{"agent closed", agent("connection closed"), FailTransient, 0},
		{"agent 500", agent("httpsim: status 500: boom"), FailTransient, 0},
		{"agent 429", agent("httpsim: status 429: slow down"), FailTransient, 0},
		{"agent 404", agent("httpsim: status 404: missing"), FailUnknown, 0},
		{"agent other", agent("digest mismatch"), FailUnknown, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := classifyExecErr(tc.err)
			if c := Classify(got); c != tc.want {
				t.Errorf("Classify(classifyExecErr(%v)) = %v, want %v", tc.err, c, tc.want)
			}
			if !errors.Is(got, tc.err) {
				t.Errorf("classified %v no longer wraps its cause", got)
			}
			if h := retryAfterHint(got); h != tc.hint {
				t.Errorf("retryAfterHint = %v, want %v", h, tc.hint)
			}
		})
	}
	if got := classifyExecErr(nil); got != nil {
		t.Fatalf("classifyExecErr(nil) = %v, want nil", got)
	}
}

// TestIsPathErrorTable pins which errors the reroute loop owns: dead
// or hiccuping paths, by sentinel or by agent string. Transfer and
// provider failures go back to the scheduler.
func TestIsPathErrorTable(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{fmt.Errorf("hop1: %w", transport.ErrReset), true},
		{fmt.Errorf("dial: %w", transport.ErrRefused), true},
		{bgppol.ErrBlackhole, true},
		{bgppol.ErrLoop, true},
		{bgppol.ErrNoRoute, true},
		{errors.New("agent: no route to host"), true},
		{errors.New("agent: blackhole"), true},
		{errors.New("agent: ttl expired"), true},
		{errors.New("agent: no border router"), true},
		{errors.New("agent: connection reset"), true},
		{errors.New("agent: connection closed"), true},
		{errors.New("agent: connection refused"), true},
		{errors.New("agent: dtn draining"), true},
		{core.ErrStall, false},
		{core.ErrIntegrity, false},
		{&httpsim.StatusError{Status: httpsim.StatusServiceUnavailable}, false},
		{&httpsim.StatusError{Status: httpsim.StatusTooManyRequests, RetryAfter: 5}, false},
		{errors.New("agent: httpsim: status 500: boom"), false},
		{errors.New("agent: no space left on staging disk"), false},
	}
	for _, tc := range cases {
		if got := isPathError(tc.err); got != tc.want {
			t.Errorf("isPathError(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
