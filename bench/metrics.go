package main

// metricDef is one row of the benchmark's contract. BENCHMARK.json at the
// repository root carries the same rows; a test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the fleet sees. Every workload reports
// every row, because every run takes its fleet through the same life — set
// up, serve, ingest, crash, restart — and the workload only decides the
// world, the topology and the traffic of the measured phase. bound is the
// share of the parent's median a metric may worsen by. A timing is listed
// here only if every workload takes enough samples of it in a run for its
// median to repeat on a two-vCPU box shared with other tenants; the rest of
// what a run times (build, boot, restart, the append tail) is in perLayer
// under the `currents` layer, and so is peak memory, which the collector's
// timing moves by a sixth from run to run on ingest_mixed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"read_rps", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p95_ms", "ms", "lower", 0.25},
	{"append_p10_ms", "ms", "lower", 0.25},
	{"disk_bytes_per_claim", "B", "lower", 0.1},
	{"truth_accuracy", "fraction", "higher", 0.02},
	{"copy_f1", "fraction", "higher", 0.25},
}

var (
	worldNames = []string{"wide", "mid", "tall"}
	shapeNames = []string{srcMajor, objMajor}
)

// perLayer lists the single-layer figures of the traced run, by module.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }
	perWorld := func(name, unit, better string) {
		for _, w := range worldNames {
			add(name+"."+w, unit, better)
		}
	}
	perShape := func(name, unit, better string) {
		for _, s := range shapeNames {
			add(name+"."+s, unit, better)
		}
	}
	perWorld("dataset.csv_parse_ms", "ms", "lower")
	perWorld("dataset.compile_ms", "ms", "lower")
	perShape("dataset.append_ms", "ms", "lower")

	perWorld("truth.accu_ms", "ms", "lower")
	perWorld("truth.rounds", "count", "lower")

	perWorld("depen.detect_ms", "ms", "lower")
	perWorld("depen.pairs", "count", "lower")
	perWorld("depen.ns_per_pair", "ns", "lower")
	perWorld("depen.rounds", "count", "lower")
	perShape("depen.refine_ms", "ms", "lower")
	perShape("depen.refine_vs_rebuild", "ratio", "lower")

	perWorld("queryans.plan_ms", "ms", "lower")
	perWorld("queryans.probes_per_query", "count", "lower")

	perWorld("fusion.fuse_ms", "ms", "lower")

	perWorld("session.build_self_ms", "ms", "lower")
	perShape("session.append_self_ms", "ms", "lower")
	perWorld("session.snapshot_write_ms", "ms", "lower")
	perWorld("session.snapshot_bytes_per_claim", "B", "lower")
	perWorld("session.snapshot_load_us", "us", "lower")
	perWorld("session.materialize_ms", "ms", "lower")
	add("session.snapshot_load_v1_ms.mid", "ms", "lower")
	add("session.asof_retained_ns", "ns", "lower")
	add("session.asof_materialize_ms", "ms", "lower")

	add("server.exec_self_us", "us", "lower")
	add("server.handler_miss_self_us", "us", "lower")
	add("server.handler_hit_us", "us", "lower")
	add("server.http_self_us", "us", "lower")
	perShape("server.append_handler_self_ms", "ms", "lower")
	add("server.compact_stall_ms", "ms", "lower")
	add("server.replay_ms_per_segment", "ms", "lower")
	add("server.cache_hit_ratio", "ratio", "higher")
	add("server.cache_evictions", "count", "lower")
	add("server.cache_flushes", "count", "lower")
	add("server.coalesced", "count", "higher")
	add("server.answer_mean_us", "us", "lower")

	add("cluster.place_ns", "ns", "lower")
	add("cluster.hop_self_us", "us", "lower")
	perShape("cluster.append_fanout_self_ms", "ms", "lower")
	add("cluster.retries", "count", "lower")
	add("cluster.failovers", "count", "lower")
	add("cluster.hedges", "count", "lower")
	add("cluster.replica_append_errors", "count", "lower")
	add("cluster.repairs", "count", "lower")
	add("cluster.shard_mean_us", "us", "lower")

	add("currents.build_s", "s", "lower")
	add("currents.exec_to_ready_ms", "ms", "lower")
	add("currents.boot_to_answer_ms", "ms", "lower")
	add("currents.append_p95_ms", "ms", "lower")
	add("currents.restart_to_answer_ms", "ms", "lower")
	add("currents.peak_rss_mb", "MiB", "lower")
	add("currents.process_gap_us", "us", "lower")

	add("gen.cpu_share", "ratio", "lower")
	add("trace.overhead_pct", "%", "lower")
	return out
}

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"hot_read", "router + 2 shards, 32-query Zipf pool that fits the answer cache: the router hop and the server's HTTP/JSON/cache path do the work, the planner none"},
	{"cold_plan", "one shard, no router, every 5-object query unique so every read misses and plans: the planner does ~95% of the work; the bypass twin of hot_read"},
	{"ingest_mixed", "router + 2 shards at rf=2, one stream of durable appends (2:1 cheap:expensive shapes) each followed by 128 pool reads, a tenth as-of: writes among reads, then crash and replay"},
}
