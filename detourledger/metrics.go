package main

// metricDef describes one ledger metric. bound is the share of the old
// median by which the metric may worsen before -compare calls it a
// regression (0: no bound, the metric only explains others). listed
// marks the metrics every workload reports in its one-line JSON result:
// end-to-end ones with -trace 0, per-layer ones with -trace 1. The
// BENCHMARK.json lists at the repository root are exactly these.
type metricDef struct {
	name, unit, better string
	bound              float64
	e2e, listed        bool
	// strict metrics are regressions on any worsening, whatever bound
	// the one-workload result declares for them.
	strict bool
}

// modules are the internal/ packages a CPU sample can be charged to.
var modules = []string{
	"bgppol", "cloudsim", "core", "detourselect", "experiments", "faults",
	"fileutil", "fluid", "geo", "health", "httpsim", "journal", "measure",
	"multipath", "oauthsim", "overlay", "report", "rsyncx", "scenario",
	"sched", "sdk", "simclock", "simproc", "stats", "tcpmodel",
	"telemetry", "topology", "tracelog", "traceroutex", "transport",
	"workload", "xtraffic",
}

// Wall-clock end-to-end bounds: a run's median over batches moves by a
// few percent between identical runs on a shared 2-core box. Virtual
// metrics are deterministic per seed; their 1% admits only float
// re-association.
var metricDefs = append([]metricDef{
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25, e2e: true, listed: true},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, e2e: true, listed: true},
	{name: "alloc_bytes_per_op", unit: "B", better: "lower", bound: 0.10, e2e: true, listed: true},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25, e2e: true, listed: true},
	{name: "success_frac", unit: "frac", better: "higher", bound: 0.01, e2e: true, listed: true, strict: true},
	{name: "transfer_s_p50", unit: "s", better: "lower", bound: 0.01, e2e: true},
	{name: "transfer_s_p99", unit: "s", better: "lower", bound: 0.01, e2e: true},
	{name: "goodput_mbps", unit: "MB/s", better: "higher", bound: 0.01, e2e: true},
	{name: "detour_speedup", unit: "x", better: "higher", bound: 0.01, e2e: true},

	{name: "runtime.gc_cpu_frac", unit: "frac", better: "lower", listed: true},
	{name: "trace.overhead_frac", unit: "frac", better: "lower", listed: true},
	{name: "cpu_share.runtime", unit: "frac", better: "lower", listed: true},
	{name: "cpu_share.bench", unit: "frac", better: "lower", listed: true},

	{name: "fluid.startflow_us_p50", unit: "us", better: "lower"},
	{name: "fluid.startflow_us_p99", unit: "us", better: "lower"},
	{name: "fluid.setload_us_p50", unit: "us", better: "lower"},
	{name: "fluid.setload_us_p99", unit: "us", better: "lower"},
	{name: "simclock.step_us_p50", unit: "us", better: "lower"},
	{name: "simclock.step_us_p99", unit: "us", better: "lower"},
	{name: "topology.routedlinks_us_p50", unit: "us", better: "lower"},
	{name: "topology.routedlinks_us_p99", unit: "us", better: "lower"},
	{name: "fluid.reallocs_per_op", unit: "1/op", better: "lower", listed: true},
	{name: "simclock.events_per_op", unit: "1/op", better: "lower", listed: true},

	{name: "sched.self_us_per_job", unit: "us", better: "lower"},
	{name: "sched.exec_us_per_job", unit: "us", better: "lower"},
	{name: "sched.submit_us_p50", unit: "us", better: "lower"},
	{name: "sched.submit_us_p99", unit: "us", better: "lower"},
	{name: "sched.plan_calls_per_job", unit: "1/job", better: "lower", listed: true},
	{name: "sched.attempts_per_job", unit: "1/job", better: "lower", listed: true},
	{name: "sched.cache_hit_frac", unit: "frac", better: "higher", listed: true},
	{name: "sched.reroutes_per_job", unit: "1/job", better: "lower", listed: true},
	{name: "sched.park_s_per_job", unit: "s", better: "lower"},
	{name: "sched.queue_delay_s_p50", unit: "s", better: "lower"},
	{name: "sched.queue_delay_s_p99", unit: "s", better: "lower"},
	{name: "sched.feed_lag_s_p50", unit: "s", better: "lower"},
	{name: "sched.feed_lag_s_p99", unit: "s", better: "lower"},
	{name: "sched.untyped_fail_frac", unit: "frac", better: "lower"},

	{name: "core.hop1_s_100mb", unit: "s", better: "lower"},
	{name: "core.hop2_s_100mb", unit: "s", better: "lower"},
	{name: "core.hop1_share", unit: "frac", better: "lower", listed: true},
	{name: "core.direct_s_100mb", unit: "s", better: "lower"},
	{name: "core.resent_frac", unit: "frac", better: "lower", listed: true},
	{name: "measure.grid_us_p50", unit: "us", better: "lower"},
	{name: "measure.grid_us_p99", unit: "us", better: "lower"},

	{name: "journal.bytes_per_job", unit: "B/job", better: "lower", listed: true},
	{name: "faults.transitions_per_seed", unit: "1/seed", better: "lower", listed: true},
	{name: "tracelog.events_per_op", unit: "1/op", better: "lower", listed: true},
}, cpuShareDefs()...)

func cpuShareDefs() []metricDef {
	defs := make([]metricDef, len(modules))
	for i, m := range modules {
		defs[i] = metricDef{name: "cpu_share." + m, unit: "frac", better: "lower", listed: true}
	}
	return defs
}

// lookupMetric returns the definition of a metric name.
func lookupMetric(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// listedMetrics lists, in table order, the metrics of a one-workload
// result: end-to-end ones untraced, per-layer ones traced.
func listedMetrics(traced bool) []metricDef {
	var out []metricDef
	for _, d := range metricDefs {
		if d.listed && d.e2e != traced {
			out = append(out, d)
		}
	}
	return out
}
