package replay

import (
	"reflect"
	"strings"
	"testing"

	"detournet/internal/core"
	"detournet/internal/sched"
	"detournet/internal/telemetry"
)

// statsFamilies maps each Stats count to the registry series it is a
// view of: a family name, or name{label value} for a labeled child.
var statsFamilies = map[string]string{
	"Submitted":               "sched_jobs_submitted_total",
	"RateLimited":             "sched_rejects_total{rate-limited}",
	"Queued":                  "sched_queue_depth",
	"Running":                 "sched_running",
	"Done":                    "sched_jobs_done_total",
	"Failed":                  "sched_jobs_failed_total",
	"Expired":                 "sched_jobs_expired_total",
	"Shed":                    "sched_jobs_shed_total",
	"Late":                    "sched_jobs_late_total",
	"QueueFullRejects":        "sched_rejects_total{queue-full}",
	"TenantQuotaRejects":      "sched_rejects_total{tenant-quota}",
	"Hedges":                  "sched_hedges_total",
	"HedgeWins":               "sched_hedge_wins_total",
	"BrownoutEntries":         "sched_brownout_enters_total",
	"BrownoutExits":           "sched_brownout_exits_total",
	"BrownoutDirect":          "sched_brownout_direct_total",
	"StaleServes":             "sched_stale_serves_total",
	"IntegrityRetries":        "sched_integrity_retries_total",
	"Reroutes":                "sched_reroutes_total",
	"Parks":                   "sched_parks_total",
	"ParkSeconds":             "sched_park_seconds_total",
	"RouteEvents":             "sched_route_events_total",
	"MultipathJobs":           "sched_multipath_jobs_total",
	"MultipathDegraded":       "sched_multipath_degraded_total",
	"MultipathHedged":         "sched_multipath_hedged_chunks_total",
	"MultipathResent":         "sched_multipath_resent_chunks_total",
	"MultipathDuplicateBytes": "sched_multipath_duplicate_bytes_total",
	"Stalls":                  "sched_stalls_total",
	"StallReroutes":           "sched_stall_reroutes_total",
	"Canaries":                "sched_canaries_total",
	"BudgetParks":             "sched_budget_parks_total",
	"QuotaFailures":           "sched_quota_fails_total",
	"QuotaReclaims":           "sched_quota_reclaims_total",
	"ProviderSpills":          "sched_provider_spills_total",
	"QuotaParks":              "sched_quota_parks_total",
	"Retries":                 "sched_retries_total",
	"Fallbacks":               "sched_fallbacks_total",
	"Failovers":               "sched_failovers_total",
	"BreakerSkips":            "sched_breaker_skips_total",
	"BytesResumed":            "sched_bytes_resumed_total",
	"BytesRewritten":          "sched_bytes_rewritten_total",
	"ChunkRepairs":            "sched_chunk_repairs_total",
	"CacheHits":               "sched_cache_hits_total",
	"CacheMisses":             "sched_cache_misses_total",
}

// notScheduler names the Stats numbers that are not the scheduler's
// counts: each is read from the one component that keeps it.
var notScheduler = map[string]string{
	"QueueDelayEWMA":     "CoDel's smoothed delay",
	"QueueDelayP99":      "a percentile of the queue-delay ring",
	"JournalENOSPCSaves": "the control journal's count",
	"JournalDropped":     "the control journal's count",
	"BreakerTransitions": "the breaker set's count",
	"CacheInvalidations": "the route cache's count",
	"RouteConverges":     "the route cache's count",
	"RouteAnnounces":     "the route cache's count",
}

// TestStatsViewRegistry: Stats is a view of the scheduler's registry.
// On the arms that reach the most families, every count Stats reports,
// PerRoute included, equals its family's value in the snapshot of the
// registry the arm ran with.
func TestStatsViewRegistry(t *testing.T) {
	withRegistry := func(sp Spec) Spec {
		sp.Config.Telemetry = telemetry.NewRegistry()
		return sp
	}
	mp, _, _ := multipathSpec(2015)
	cases := []struct {
		name string
		sp   Spec
	}{
		{"telemetry", telemetrySpec(7, true, nil)},
		{"overload/stack", withRegistry(overloadSpec(2015, overloadTrace(2015), true))},
		{"multipath", withRegistry(mp)},
		{"pressure/stack", withRegistry(pressureSpec(2015, true))},
	}
	st := reflect.TypeOf(sched.Stats{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		k := f.Type.Kind()
		if k != reflect.Int64 && k != reflect.Float64 {
			continue
		}
		_, mapped := statsFamilies[f.Name]
		_, other := notScheduler[f.Name]
		if mapped == other {
			t.Fatalf("Stats.%s must be mapped to a family or named as another component's", f.Name)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := Run(c.sp)
			snap := o.Config.Telemetry.Snapshot()
			fams := map[string]bool{}
			series := map[string]float64{}
			for _, f := range snap.Families {
				fams[f.Name] = true
				for _, m := range f.Metrics {
					key := f.Name
					if len(m.LabelValues) > 0 {
						key += "{" + strings.Join(m.LabelValues, ",") + "}"
					}
					series[key] = m.Value
				}
			}
			sv := reflect.ValueOf(o.Stats)
			for field, key := range statsFamilies {
				name, _, _ := strings.Cut(key, "{")
				if !fams[name] {
					t.Errorf("Stats.%s: family %s is not registered", field, name)
					continue
				}
				v := sv.FieldByName(field)
				got := v.Interface()
				want := series[key]
				if v.Kind() == reflect.Int64 && float64(v.Int()) != want ||
					v.Kind() == reflect.Float64 && v.Float() != want {
					t.Errorf("Stats.%s = %v, %s = %v", field, got, key, want)
				}
			}
			want := map[string]sched.RouteStats{}
			for key, jobs := range series {
				lbl, ok := strings.CutPrefix(key, "sched_route_jobs_total{")
				if !ok || jobs == 0 {
					continue
				}
				lbl = strings.TrimSuffix(lbl, "}")
				route := core.DirectRoute
				if via, ok := strings.CutPrefix(lbl, "detour:"); ok {
					route = core.ViaRoute(via)
				}
				want[route.String()] = sched.RouteStats{
					Jobs:    int64(jobs),
					Bytes:   series["sched_route_bytes_total{"+lbl+"}"],
					Seconds: series["sched_route_seconds_total{"+lbl+"}"],
				}
			}
			if len(want) == 0 {
				t.Fatal("no route delivered a job")
			}
			if !reflect.DeepEqual(o.Stats.PerRoute, want) {
				t.Errorf("PerRoute = %v, route families say %v", o.Stats.PerRoute, want)
			}
		})
	}
}
