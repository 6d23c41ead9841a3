//! The benchmark's contract: workloads, metrics, units, directions and
//! regression bounds. `spine schema` prints `BENCHMARK.json` from these
//! tables, so the file and the binary cannot drift apart.

use crate::json::Json;

pub const RUN_SECONDS: u64 = 14;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "am8_sim",
        why: "8 B active messages, window 32, memcpy wire: post path, inline protocol, packet_pool and comp are nearly all the cost; bypasses matching, rendezvous and wire framing",
    },
    Workload {
        name: "am8_tcp",
        why: "the same traffic over loopback tcp: frame codec, send queue, writev/readv and syscalls are over half the cost, so a wire gain shows only here and an upper-stack gain shows less",
    },
    Workload {
        name: "tag2k_exp_shm",
        why: "2 KiB tagged sends, every receive pre-posted: matching hit on arrival, eager staging through buf_pool, shm ring plus spill; bypasses rendezvous and the unexpected queue",
    },
    Workload {
        name: "tag2k_unexp_shm",
        why: "the same bytes arriving before their receives: matching and packet_pool used the other way round (park, match at post_recv, copy), so a gain for expected that costs unexpected shows",
    },
    Workload {
        name: "rdv512k_shm",
        why: "512 KiB tagged sends, window 4: RTS/RTR/chunk pump/FIN, reg_cache and spill-ring reclaim; per-message cost is noise here, so small-message work must not move it",
    },
    Workload {
        name: "coll_shm",
        why: "two rank threads on one core, one MoE layer plus gradient sync per step (exchange_counts, alltoallv dispatch and combine, 1 MiB allreduce): the only workload where lci::coll does the work",
    },
    Workload {
        name: "kmer_sim",
        why: "kmer::run_rank on 2 ranks sharing one core: the only workload through coalesce and handler completions; communication is a minority of the time, so it dilutes gains and must simply not regress",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these. An operation is a
/// message (point-to-point), a step (`coll_shm`) or a solve (`kmer_sim`).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "op_rate", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "goodput_mibps", unit: "MiB/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "lat_p50_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_heap_mib", unit: "MiB", better: "lower", bound: 0.10 },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: "higher" }
}

/// A traced run reports every one of these; zero means the workload
/// does not exercise the layer.
pub const PER_LAYER: [Layer; 66] = [
    // In situ: driver spans around each public call, counts from
    // `Device::stats()` deltas.
    lower("post.am_ns", "ns"),
    lower("post.send_ns", "ns"),
    lower("post.recv_ns", "ns"),
    lower("post.retry_frac", "frac"),
    lower("progress.tx_ns_per_msg", "ns"),
    lower("progress.rx_ns_per_msg", "ns"),
    lower("progress.calls_per_msg", "count"),
    higher("progress.useful_frac", "frac"),
    lower("comp.pop_ns", "ns"),
    lower("backlog.pushed_per_msg", "count"),
    lower("proto.rdv_chunks_per_msg", "count"),
    lower("proto.copied_deliveries_per_msg", "count"),
    higher("buf_pool.hit_frac", "frac"),
    lower("buf_pool.steals_per_msg", "count"),
    higher("reg_cache.hit_frac", "frac"),
    lower("shm.ring_hwm", "count"),
    higher("tcp.writev_fill", "count"),
    lower("tcp.syscalls_per_msg", "count"),
    lower("tcp.lat_p99_us", "us"),
    lower("tcp.lat_stall_frac", "frac"),
    lower("tcp.teardown_panics", "count"),
    lower("coll.exchange_counts_us", "us"),
    lower("coll.a2av_dispatch_us", "us"),
    lower("coll.a2av_combine_us", "us"),
    lower("coll.allreduce_1m_us", "us"),
    lower("coll.rounds_per_step", "count"),
    lower("coll.bytes_per_step", "B"),
    higher("coll.skipped_pairs_per_step", "count"),
    higher("coll.chunks_inflight_hwm", "count"),
    higher("coalesce.msgs_per_flush", "count"),
    lower("kmer.posts_per_kmer", "count"),
    lower("kmer.serial_ms", "ms"),
    lower("trace.overhead_frac", "frac"),
    lower("trace.self_gap_frac", "frac"),
    // Counts of a 4-rank pass of the `coll_shm` step (no timings: four
    // rank threads do not fit two cores).
    lower("coll.4r.rounds_per_step", "count"),
    lower("coll.4r.bytes_per_step", "B"),
    higher("coll.4r.skipped_pairs_per_step", "count"),
    lower("coll.4r.posts_per_step", "count"),
    // Isolated: one thread, best-slice CPU ns per call of the layer's
    // public function.
    lower("matching.insert_hit_ns", "ns"),
    lower("matching.insert_unexp64_ns", "ns"),
    lower("packet_pool.get_put_ns", "ns"),
    lower("buf_pool.take_2k_ns", "ns"),
    lower("buf_pool.take_512k_ns", "ns"),
    lower("comp.cq_push_pop_ns", "ns"),
    lower("comp.sync_signal_ns", "ns"),
    lower("comp.handler_signal_ns", "ns"),
    lower("sync.doorbell_ring_ns", "ns"),
    lower("reg_cache.register_hit_ns", "ns"),
    lower("reg_cache.register_miss_ns", "ns"),
    lower("netdev.sim_ibv.send8_ns", "ns"),
    lower("netdev.shm.send8_ns", "ns"),
    lower("netdev.shm.send2k_ns", "ns"),
    higher("netdev.shm.write512k_mibps", "MiB/s"),
    lower("netdev.tcp.send8_ns", "ns"),
    lower("netdev.tcp.send2k_ns", "ns"),
    // Derived: workload ns per message minus the raw wire's.
    lower("lci.upper_ns_per_msg.sim", "ns"),
    lower("lci.upper_ns_per_msg.shm", "ns"),
    lower("lci.upper_ns_per_msg.tcp", "ns"),
    // End-to-end figures that only some workloads have, or that have no
    // relative bound (see README "Demoted metrics").
    higher("msg_rate_mps", "M/s"),
    lower("step_us", "us"),
    lower("solve_ms", "ms"),
    lower("lat_p99_us", "us"),
    lower("allocs_per_op", "count"),
    lower("peak_rss_mib", "MiB"),
    lower("fail_frac", "frac"),
    lower("steal_frac", "frac"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The content of `/BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let indent = |items: Vec<Json>| {
        let lines: Vec<String> = items.iter().map(|j| format!("    {j}")).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better)),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better)),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        indent(workloads),
        indent(end_to_end),
        indent(per_layer),
    )
}
