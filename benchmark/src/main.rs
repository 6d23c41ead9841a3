//! `spine`: the end-to-end and per-layer benchmark of the LCI stack.
//! See README.md for the glossary and BENCHMARK.json for the contract.
//!
//! The parent process runs each workload in child processes (a re-exec
//! of `/proc/self/exe`), so a hang or a crash is a counted failure, and
//! merges what they report.

mod coll;
mod gen;
mod json;
mod kmer_wl;
mod layers;
mod p2p;
mod report;
mod spec;
mod stats;
mod sys;
mod trace;

use json::Json;
use report::Report;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: sys::CountingAlloc = sys::CountingAlloc;

/// Untraced runs measure in this many children and report the best
/// child, so one process's unlucky page placement does not decide the
/// run; a traced run is one child.
const CHILDREN: usize = 7;

struct Args {
    cmd: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// The core a child confines itself to.
    core: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: spine [run] [--workload W] [--seed N] [--seconds S] [--trace [0|1]]\n       \
         spine selfcheck [--seed N] [--seconds S]\n       spine schema\nworkloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(" ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut a = Args {
        cmd: "run".into(),
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        core: 0,
    };
    let mut it = std::env::args().skip(1).peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            a.cmd = it.next().expect("peeked");
        }
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = Some(value()),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--core" => a.core = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            _ => usage(),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        usage();
    }
    if let Some(w) = &a.workload {
        if !spec::WORKLOADS.iter().any(|k| k.name == w) {
            usage();
        }
    }
    a
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

// ---------------------------------------------------------------------
// Child: one measured process.
// ---------------------------------------------------------------------

fn child(a: &Args) {
    let born = Instant::now();
    let name = a.workload.as_deref().unwrap_or_else(|| usage());
    let (steal0, total0) = sys::cpu_jiffies();
    let mut rep = Report::default();
    // A traced child leaves the last third of its time to the passes
    // that do not depend on the workload.
    let seconds = if a.trace { a.seconds * 0.65 } else { a.seconds };
    // One core for the whole child and every thread it spawns, the rank
    // threads of `coll_shm` and `kmer_sim` too (README, "One core per
    // child").
    sys::pin_to_core(a.core);
    match (p2p::Kind::from_name(name), name) {
        (Some(k), _) => p2p::run(k, a.seed, seconds, a.trace, born, &mut rep),
        (None, "coll_shm") => coll::run(a.seed, seconds, a.trace, born, &mut rep),
        (None, _) => kmer_wl::run(a.seed, seconds, a.trace, born, &mut rep),
    }
    if a.trace {
        layers::run(a.seconds * 0.25, &mut rep);
        coll::four_rank_counts(a.seed, &mut rep);
        p2p::coalesce_probe(&mut rep);
        // What `lci` adds on top of the raw wire, per message.
        let upper = [
            ("am8_sim", "lci.upper_ns_per_msg.sim", "netdev.sim_ibv.send8_ns"),
            ("tag2k_exp_shm", "lci.upper_ns_per_msg.shm", "netdev.shm.send2k_ns"),
            ("am8_tcp", "lci.upper_ns_per_msg.tcp", "netdev.tcp.send8_ns"),
        ];
        for (workload, metric, wire) in upper {
            if let (true, Some(ns), Some(w)) = (workload == name, rep.ns_per_msg, rep.get(wire)) {
                rep.metric(metric, ns - w);
            }
        }
        let ops = rep.attempted.max(1) as f64;
        rep.metric("fail_frac", rep.failed as f64 / ops);
        rep.metric("peak_rss_mib", sys::peak_rss_mib());
    } else {
        rep.metric("peak_heap_mib", sys::peak_heap_mib());
    }
    let (steal1, total1) = sys::cpu_jiffies();
    let steal = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    if a.trace {
        rep.metric("steal_frac", steal);
    }
    rep.info("steal_jiffies", steal1 - steal0);
    rep.info("total_jiffies", total1 - total0);
    rep.print();
    if let Some(spans) = rep.trace.take() {
        let doc = Json::obj([
            ("workload", Json::str(name)),
            ("seed", Json::Int(a.seed)),
            ("meta", metadata()),
            ("span_names", Json::Arr(trace::NAMES.iter().map(|n| Json::str(*n)).collect())),
            ("report", rep.to_json()),
            ("trace", spans),
        ]);
        let path = out_dir().join(format!("trace-{name}.json"));
        std::fs::write(&path, format!("{doc}\n")).expect("write the trace file");
    }
    std::io::stdout().flush().expect("flush stdout");
}

// ---------------------------------------------------------------------
// Parent: spawn, watch, merge.
// ---------------------------------------------------------------------

struct ChildRun {
    report: Report,
    /// Panics of library threads during teardown (the tcp bridge's
    /// self-join); any other panic fails the run.
    teardown_panics: u64,
    /// The watchdog killed it.
    hung: bool,
}

/// Runs one child to completion or kills it at the watchdog.
fn spawn_child(name: &str, seed: u64, seconds: f64, trace: bool, idx: usize) -> ChildRun {
    let dir = out_dir();
    let stem = format!("child-{name}-{}{idx}", if trace { "t" } else { "" });
    let (out_path, err_path) = (dir.join(format!("{stem}.out")), dir.join(format!("{stem}.err")));
    let file = |p: &PathBuf| std::fs::File::create(p).expect("create child output file");
    let mut proc = Command::new("/proc/self/exe")
        .args(["child", "--workload", name, "--seed", &seed.to_string()])
        .args(["--core", &(idx % nproc()).to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(file(&out_path))
        .stderr(file(&err_path))
        .spawn()
        .expect("re-exec /proc/self/exe");
    // Ten times the quiet budget, capped: a run stops at its first hung
    // child, so it stays within the harness's 180 s.
    let quiet = seconds + 3.0;
    let watchdog = Duration::from_secs_f64((10.0 * quiet).min(45.0));
    let start = Instant::now();
    let status = loop {
        match proc.try_wait().expect("wait for the child") {
            Some(s) => break Some(s),
            None if start.elapsed() > watchdog => {
                let _ = proc.kill();
                let _ = proc.wait();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let stdout = std::fs::read_to_string(&out_path).unwrap_or_default();
    let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
    let mut report = Report::parse(&stdout);
    let panics: Vec<&str> = stderr.lines().filter(|l| l.contains("panicked at")).collect();
    let benign = |l: &str| l.contains("lci-tcp-epoll");
    let teardown_panics = panics.iter().filter(|l| benign(l)).count() as u64;
    match status {
        None => {
            report.abort(format!("killed by the watchdog after {:.0} s", watchdog.as_secs_f64()))
        }
        Some(s) if !s.success() => report.abort(format!("child exited with {s}")),
        Some(_) if report.attempted == 0 => report.abort("child reported nothing".into()),
        Some(_) => {}
    }
    if let Some(p) = panics.iter().find(|l| !benign(l)) {
        report.abort(format!("panic in the child: {p}"));
    }
    ChildRun { report, teardown_panics, hung: status.is_none() }
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn metadata() -> Json {
    let online = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
    Json::obj([
        ("git_sha", Json::str(git_sha())),
        ("nproc", Json::Int(nproc() as u64)),
        ("cpus_online", Json::str(online.trim())),
        ("lci_cores_env", Json::str(std::env::var("LCI_CORES").unwrap_or_default())),
    ])
}

/// What a run of one workload produced.
struct Outcome {
    name: &'static str,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn get(&self, name: &str) -> f64 {
        self.metrics.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
    }

    /// The line the harness reads.
    fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(n, v)| {
            (*n, Json::obj([("value", Json::Num(*v)), ("unit", Json::str(spec::unit_of(n)))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted.max(1))),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string()
    }
}

fn run_workload(name: &'static str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let n = if trace { 1 } else { CHILDREN };
    let mut runs: Vec<ChildRun> = Vec::new();
    for i in 0..n {
        runs.push(spawn_child(name, seed, seconds / n as f64, trace, i));
        if runs[i].hung {
            break;
        }
    }
    // Noise guard: a child whose fastest quarter took twice its best
    // slice is run once more and flagged, not silently reported. One
    // rerun per run bounds the time.
    let noisy = runs.iter().any(|r| r.report.noisy());
    if noisy && !trace {
        runs.push(spawn_child(name, seed, seconds / n as f64, trace, n));
    }

    let values =
        |metric: &str| -> Vec<f64> { runs.iter().filter_map(|r| r.report.get(metric)).collect() };
    let mut metrics = Vec::new();
    if trace {
        let panics: u64 = runs.iter().map(|r| r.teardown_panics).sum();
        for m in &spec::PER_LAYER {
            let v = match m.name {
                "tcp.teardown_panics" => panics as f64,
                // Zero: the workload does not exercise the layer.
                _ => values(m.name).first().copied().unwrap_or(0.0),
            };
            metrics.push((m.name, v));
        }
    } else {
        for m in &spec::END_TO_END {
            let pick = if m.better == "lower" { f64::min } else { f64::max };
            metrics.push((m.name, values(m.name).into_iter().reduce(pick).unwrap_or(0.0)));
        }
    }
    let out = Outcome {
        name,
        attempted: runs.iter().map(|r| r.report.attempted).sum(),
        failed: runs.iter().map(|r| r.report.failed).sum(),
        metrics,
    };

    let doc = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Int(seed)),
        ("seconds", Json::Num(seconds)),
        ("traced", Json::Bool(trace)),
        ("noisy", Json::Bool(noisy)),
        ("meta", metadata()),
        ("result", Json::obj(out.metrics.iter().map(|(n, v)| (*n, Json::Num(*v))))),
        ("children", Json::Arr(runs.iter().map(|r| r.report.to_json()).collect())),
    ]);
    let kind = if trace { "layers" } else { "run" };
    std::fs::write(out_dir().join(format!("{kind}-{name}.json")), format!("{doc}\n"))
        .expect("write the run file");

    println!(
        "{name}: seed {seed}, {} ops, {} failed{}",
        out.attempted,
        out.failed,
        if noisy { ", noisy" } else { "" }
    );
    for r in &runs {
        for e in &r.report.errors {
            println!("  error: {e}");
        }
    }
    for (n, v) in &out.metrics {
        println!("  {n:<36} {v:>16.4} {}", spec::unit_of(n));
    }
    out
}

fn selected(a: &Args) -> Vec<&'static str> {
    spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| a.workload.as_deref().is_none_or(|w| w == *n))
        .collect()
}

/// Two full sets on one build must agree within every metric's bound.
fn selfcheck(a: &Args) -> bool {
    let schema_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let mut ok = std::fs::read_to_string(&schema_path).is_ok_and(|s| s == spec::benchmark_json());
    if !ok {
        println!("BENCHMARK.json differs from `spine schema`");
    }
    let sets: Vec<Vec<Outcome>> = (0..2)
        .map(|_| {
            selected(a).into_iter().map(|w| run_workload(w, a.seed, a.seconds, false)).collect()
        })
        .collect();
    println!(
        "\n{:<16} {:<14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for (x, y) in sets[0].iter().zip(&sets[1]) {
        ok &= x.failed + y.failed == 0;
        for m in &spec::END_TO_END {
            let (u, v) = (x.get(m.name), y.get(m.name));
            // How much worse the worse of the two is, as a share of the
            // better: symmetric, so the order of the sets does not matter.
            let worse = (u.max(v) / u.min(v).max(f64::MIN_POSITIVE)) - 1.0;
            let pass = worse <= m.bound;
            ok &= pass;
            println!(
                "{:<16} {:<14} {u:>14.4} {v:>14.4} {:>7.1}% {:>5.0}%{}",
                x.name,
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                if pass { "" } else { "  FAIL" }
            );
        }
    }
    println!("selfcheck: {}", if ok { "the two sets agree" } else { "FAILED" });
    ok
}

fn main() {
    let a = parse_args();
    match a.cmd.as_str() {
        "child" => child(&a),
        "schema" => print!("{}", spec::benchmark_json()),
        "selfcheck" => {
            if !selfcheck(&a) {
                std::process::exit(1);
            }
        }
        "run" => {
            for w in selected(&a) {
                let out = run_workload(w, a.seed, a.seconds, a.trace);
                println!("{}", out.result_line());
            }
        }
        _ => usage(),
    }
}
