//! The architecture's invariants, checked over the sources.
//!
//! Each guard is a pure function from a source tree — `(path, text)`
//! pairs, paths relative to the repository root — to the violations it
//! finds, with a one-line reason. Every guard runs once over the real
//! tree, and once over the tree with a violation planted in it, which it
//! must catch. This file is left out of the tree: it names what it
//! forbids.

use std::path::Path;
use std::sync::OnceLock;

/// One source file: its path relative to the repository root, and its text.
type Source = (String, String);

/// A guard: the violations it finds in a tree (empty when it holds).
type Guard = fn(&[Source]) -> Vec<String>;

/// Names of options, modes and types that were removed, each by making
/// one path the only path or a value a constant. One reappearing under
/// a crate's `src` is an option coming back.
const REMOVED_KNOBS: &[&str] = &[
    "alloc_recycling",
    "zero_copy_recv",
    "rdv_chunking",
    "coll_naive:",
    "with_coll_naive",
    "prepost_watermark",
    "rdv_shards",
    // Single-copy RMA is a constant of the wire (`Wire::LOCAL_DIRECT`).
    "direct_rma",
    "single_copy",
    "LCI_SHM_DIRECT",
    // The rendezvous chunk size and window are constants.
    "rdv_chunk_size",
    "rdv_max_inflight",
    // A receive that is not posted is a refusal, not a staged copy.
    "rx_capacity",
    "RxEndpoint",
    "WirePayload",
    "deliver_inbound",
    // One table for everything in flight; settings with one value in
    // use are constants; what had no caller is gone.
    "CtxPool",
    "RegCacheConfig",
    "geometry_from_env",
    "LCI_SHM_SLOTS",
    "coll_max_inflight",
    "max_sub_size",
    "SharedPacket",
    "ring_doorbell",
    // One completion queue (the bounded ring); lci builds its own staging
    // pool. `eager_size` is not listed: the eager limit is the packet
    // payload size, but `lci-baselines` carries a setting of that name.
    "CqImpl",
    "CqConfig",
    "alloc_cq_with",
    "Lcrq",
    "buf_pool_stats",
    "fn buf_pool(&self) -> BufPool",
    // One bounded ring (`sync::MpmcRing`) under the CQE staging ring and
    // the completion queue; per-QP locking is the only ibv layout.
    "ArrayQueue",
    "TdStrategy",
    "with_td_strategy",
    // A send the wire did not take leaves at a later progress call on
    // its rank, one post at a time: no batch send, no batched backlog
    // drain, no tcp backstop. Every per-core layout has one stripe per
    // detected core.
    "post_send_batch",
    "SendDesc",
    "pop_run",
    "backstop_flush",
    "flush_stale",
    "Placement",
    // A rendezvous send is done when the wire takes its last chunk: no
    // chunk window, no per-chunk completion, no in-flight mark. Keys
    // are `matching::make_key`, with no hook to replace it.
    "RDV_WINDOW",
    "RdvChunk",
    "rdv_inflight_hwm",
    "set_make_key",
    "MakeKeyFn",
    // A drain's claim takes every two-sided kind through the one
    // dispatch a landed frame takes, not a tagged-eager side door.
    "claim_eager",
];

/// The removed progress modes, their engine threads and blocking waits,
/// and the placement switch. Searched in examples and tests too: a
/// caller is how a mode comes back.
const REMOVED_PROGRESS: &[&str] = &[
    "ProgressMode",
    "progress_mode",
    "pin_progress",
    "spawn_progress_threads",
    "worker_progress",
    "wait_blocking",
    "pop_wait",
    "comp_bell",
    "Placement::disabled",
];

/// The staged inbound frame and the wires' bell ringing: no wire wakes
/// anybody, whoever polls finds the frame.
const REMOVED_STAGING: &[&str] =
    &["InPayload", "InFrame", "ring_all_bells", "bridge_wake", "doorbell_cross_proc_wakes"];

/// The per-collective blocking loops and completion-graph chains: one
/// stepper runs every plan. The shelf of landing boxes: every fold lands
/// in the state's arena. The ring's fold in place: a reduction in one
/// address space is the direct schedule. And the collectives no caller
/// used — the `i*` handles with their spare states and owned scopes,
/// broadcast, reduce, the pairwise alltoall — with the reduce-then-
/// broadcast fallback past the ring's rank limit: the ring serves every
/// world size. Searched in `lci::coll` and `runtime.rs`.
const REMOVED_COLL_LOOPS: &[&str] = &[
    "post_windowed",
    "drain_sends",
    "pop_recv",
    "post_send_node",
    "post_recv_node",
    "SHELF_CAP",
    "put_databuf",
    "chunk_cap",
    "fold_in_place",
    "in_place: bool",
    "IColl",
    "coll_spare",
    "over_owned",
    "MAX_RING_RANKS",
    "ROUND_BCAST",
    "ROUND_REDUCE",
    "ROUND_A2A",
];

/// Whether `path` is library code: under a crate's `src`.
fn in_src(path: &str) -> bool {
    path.starts_with("crates/") && path.split('/').nth(2) == Some("src")
}

/// Whether `path` is a module's unit tests in a file of their own.
fn unit_test_file(path: &str) -> bool {
    path.ends_with("/tests.rs") || path.contains("/tests/")
}

/// The lines of `text` before its first column-0 `#[cfg(test)]` that
/// opens a test module in the file (one over `mod tests;` only names a
/// file of its own, and the code below it still counts).
fn non_test_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let lines: Vec<&str> = text.lines().collect();
    let out_of_line = |i: usize| lines.get(i + 1).is_some_and(|l| l.trim_end().ends_with(';'));
    let end = (0..lines.len())
        .find(|&i| lines[i].starts_with("#[cfg(test)]") && !out_of_line(i))
        .unwrap_or(lines.len());
    text.lines().enumerate().take(end)
}

/// Every line of the files `scope` selects that contains one of `names`.
fn lines_naming(tree: &[Source], scope: fn(&str) -> bool, names: &[&str]) -> Vec<String> {
    let mut hits = Vec::new();
    for (path, text) in tree.iter().filter(|(p, _)| scope(p)) {
        for (n, line) in text.lines().enumerate() {
            if names.iter().any(|name| line.contains(name)) {
                hits.push(format!("{path}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    hits
}

/// A removed knob, mode, staging type or collective loop is back.
fn removed_knobs_stay_removed(tree: &[Source]) -> Vec<String> {
    let mut hits = lines_naming(tree, in_src, REMOVED_KNOBS);
    let src_examples_tests =
        |p: &str| in_src(p) || p.starts_with("examples/") || p.starts_with("tests/");
    hits.extend(lines_naming(tree, src_examples_tests, REMOVED_PROGRESS));
    hits.extend(lines_naming(tree, in_src, REMOVED_STAGING));
    let coll = |p: &str| p.starts_with("crates/lci/src/coll/") || p == "crates/lci/src/runtime.rs";
    hits.extend(lines_naming(tree, coll, REMOVED_COLL_LOOPS));
    hits
}

/// Collectives post from the caller's buffer and land in it (a fold, in
/// the state's arena): nothing is staged, no shelf box is taken, one
/// place posts sends, and caller memory is lent only under `lci::coll`
/// (by the scope that waits for it, or aborts).
fn collectives_lend_through_one_door(tree: &[Source]) -> Vec<String> {
    let coll = |p: &str| p.starts_with("crates/lci/src/coll/");
    let mut hits: Vec<String> = lines_naming(tree, coll, &["stage_copy"])
        .into_iter()
        .map(|h| format!("{h} (a collective stages a payload again)"))
        .collect();
    hits.extend(
        lines_naming(tree, coll, &["take_box("])
            .into_iter()
            .map(|h| format!("{h} (a shelf box is back: folds land in the arena)")),
    );
    let posts = lines_naming(tree, coll, &["post_send_x"]);
    if posts.len() != 1 {
        hits.push(format!("{} places in lci::coll post sends, not 1: {posts:?}", posts.len()));
    }
    let anywhere = |p: &str| {
        (p.starts_with("crates/") || p.starts_with("examples/") || p.starts_with("tests/"))
            && !p.starts_with("crates/lci/src/coll/")
    };
    hits.extend(
        lines_naming(tree, anywhere, &["Lent::new"])
            .into_iter()
            .map(|h| format!("{h} (memory lent outside lci::coll)")),
    );
    hits
}

/// Progress is explicit and whoever calls it drives it: `lci` names no
/// thread builder, bell, condvar or timed park, and yields only through
/// the one wait rule in `wait.rs` (unit tests aside, in the file or in
/// one of their own: their test doubles and threads are not the
/// library's policy).
fn lci_spawns_no_thread_and_parks_on_nothing(tree: &[Source]) -> Vec<String> {
    let mut hits = Vec::new();
    let scope = |p: &str| p.starts_with("crates/lci/src/") && !unit_test_file(p);
    for (path, text) in tree.iter().filter(|(p, _)| scope(p)) {
        for (n, line) in non_test_lines(text) {
            let parks = ["thread::Builder", "Doorbell", "Condvar", "park_timeout"]
                .iter()
                .any(|name| line.contains(name));
            let yields = line.contains("yield_now") && path != "crates/lci/src/wait.rs";
            if parks || yields {
                hits.push(format!("{path}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    hits
}

/// Where `lci` and `lci-fabric` may start a thread: the launcher side
/// only (the child reapers in `bootstrap.rs`, the root service in
/// `tcp/oob.rs`). Nothing on a rank's path moves bytes but the threads
/// that call it; unit tests aside.
const THREAD_STARTERS: &[&str] =
    &["crates/lci-fabric/src/bootstrap.rs", "crates/lci-fabric/src/tcp/oob.rs"];

/// A thread is started (`thread::spawn`, a `Builder`'s `spawn`, a scope)
/// in `lci` or `lci-fabric` library code outside [`THREAD_STARTERS`].
fn threads_start_only_on_the_launcher_side(tree: &[Source]) -> Vec<String> {
    let scope = |p: &str| {
        (p.starts_with("crates/lci/src/") || p.starts_with("crates/lci-fabric/src/"))
            && !unit_test_file(p)
            && !THREAD_STARTERS.contains(&p)
    };
    let mut hits = Vec::new();
    for (path, text) in tree.iter().filter(|(p, _)| scope(p)) {
        for (n, line) in non_test_lines(text) {
            let code = !line.trim_start().starts_with("//");
            if code && (line.contains("spawn(") || line.contains("thread::scope")) {
                hits.push(format!(
                    "{path}:{}: {} (a thread outside the launcher)",
                    n + 1,
                    line.trim()
                ));
            }
        }
    }
    hits
}

/// A backend is a `Wire` under `framed::FramedDevice` plus a lock
/// layout: a second `NetDevice` implementor in library code (test
/// doubles aside) is a second copy of its methods, and a per-provider
/// device file is one coming back.
fn one_device_core(tree: &[Source]) -> Vec<String> {
    let mut impls = Vec::new();
    let mut hits = Vec::new();
    for (path, text) in tree.iter().filter(|(p, _)| in_src(p)) {
        if path.ends_with("/sim_ibv.rs") || path.ends_with("/sim_ofi.rs") {
            hits.push(format!("{path} (a per-provider device file is back)"));
        }
        for (n, line) in non_test_lines(text) {
            if line.find("impl").is_some_and(|i| line[i..].contains("NetDevice for")) {
                impls.push(format!("{path}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    if impls.len() != 1 {
        hits.push(format!("expected exactly one NetDevice implementor, found {impls:?}"));
    }
    hits
}

/// Every push, pop, `len` and `is_full` of the ring on the per-message
/// path (the CQE staging ring and the completion queue) stays lock-free:
/// `MpmcRing` holds no lock.
fn ring_stays_lock_free(tree: &[Source]) -> Vec<String> {
    const RING: &str = "crates/lci-fabric/src/sync/mpmc_ring.rs";
    let Some((_, text)) = tree.iter().find(|(p, _)| p == RING) else {
        return vec![format!("{RING} not found")];
    };
    let ring: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .skip_while(|(_, l)| !l.contains("pub struct MpmcRing"))
        .take_while(|(_, l)| !l.contains("impl<T> Drop for MpmcRing"))
        .collect();
    if ring.is_empty() {
        return vec![format!("MpmcRing not found in {RING}")];
    }
    ring.iter()
        .filter(|(_, l)| ["SpinLock<", "Spin<", "Mutex<"].iter().any(|lock| l.contains(lock)))
        .map(|(n, l)| format!("{RING}:{}: {} (MpmcRing takes a lock again)", n + 1, l.trim()))
        .collect()
}

/// A packet, a slot reference or a frame's views hold no refcount on
/// their pool: only `PacketPool` handles own `lci::packet_pool`'s state,
/// and the last one closes it (DESIGN.md §4.5).
fn packets_hold_no_pool_refcount(tree: &[Source]) -> Vec<String> {
    let packet_pool = |p: &str| p.starts_with("crates/lci/src/packet_pool");
    lines_naming(tree, packet_pool, &["Arc<PoolShared>"])
        .into_iter()
        .map(|h| format!("{h} (a packet takes a pool refcount again)"))
        .collect()
}

/// The attributes and doc lines right above line `i` of `lines`.
fn attrs_above<'t>(lines: &'t [&str], i: usize) -> impl Iterator<Item = &'t str> {
    lines[..i]
        .iter()
        .rev()
        .map(|l| l.trim())
        .take_while(|l| l.starts_with("#[") || l.starts_with("///"))
}

/// The OFF builder inlines into its caller, so the caller's frame builds
/// the post's record once: every `CommBuilder` method and every
/// `Runtime::post_*` in `post.rs` is `#[inline]`.
fn post_builder_inlines(tree: &[Source]) -> Vec<String> {
    const POST: &str = "crates/lci/src/post.rs";
    let Some((_, text)) = tree.iter().find(|(p, _)| p == POST) else {
        return vec![format!("{POST} not found")];
    };
    let lines: Vec<&str> = non_test_lines(text).map(|(_, l)| l).collect();
    let (mut block, mut seen, mut hits) = ("", 0, Vec::new());
    for (i, line) in lines.iter().enumerate() {
        if line.starts_with("impl") {
            block = line;
        }
        let Some(name) =
            ["    pub fn ", "    pub(crate) fn "].iter().find_map(|p| line.strip_prefix(p))
        else {
            continue;
        };
        let builder = block.contains("CommBuilder");
        if !(builder || block.starts_with("impl Runtime") && name.starts_with("post_")) {
            continue;
        }
        seen += 1;
        if !attrs_above(&lines, i).any(|a| a.starts_with("#[inline")) {
            hits.push(format!("{POST}:{}: {} (not #[inline])", i + 1, line.trim()));
        }
    }
    if seen == 0 {
        hits.push(format!("no CommBuilder method or Runtime::post_* found in {POST}"));
    }
    hits
}

/// One reference crosses into the device: `post_comm`, `post_comm_inner`
/// and each protocol's `post_*_impl` and `post_rendezvous` take
/// `&mut CommArgs`, never the record by value.
fn post_args_cross_by_reference(tree: &[Source]) -> Vec<String> {
    let device =
        |p: &str| p == "crates/lci/src/device.rs" || p.starts_with("crates/lci/src/device/");
    let protocol = |name: &str| {
        name.starts_with("post_comm(")
            || name.starts_with("post_comm_inner(")
            || name.starts_with("post_rendezvous(")
            || name
                .split('(')
                .next()
                .is_some_and(|n| n.starts_with("post_") && n.ends_with("_impl"))
    };
    let (mut seen, mut hits) = (0, Vec::new());
    for (path, text) in tree.iter().filter(|(p, _)| device(p)) {
        let lines: Vec<(usize, &str)> = non_test_lines(text).collect();
        for (k, (n, line)) in lines.iter().enumerate() {
            let Some(name) = line.find("fn ").map(|at| &line[at + 3..]) else { continue };
            if !protocol(name) {
                continue;
            }
            seen += 1;
            let mut sig = String::new();
            for (_, l) in &lines[k..] {
                sig.push_str(l);
                if l.ends_with('{') {
                    break;
                }
            }
            let by_value = sig
                .match_indices("CommArgs")
                .any(|(at, _)| !sig[..at].trim_end_matches("mut ").trim_end().ends_with('&'));
            if by_value {
                hits.push(format!("{path}:{}: {} (takes CommArgs by value)", n + 1, line.trim()));
            }
        }
    }
    if seen == 0 {
        hits.push(
            "no post_comm or protocol post function found under crates/lci/src/device".into(),
        );
    }
    hits
}

/// One file, one job: a library source past 1000 lines, tests included,
/// is due for a split.
fn sources_stay_readable(tree: &[Source]) -> Vec<String> {
    tree.iter()
        .filter(|(p, t)| in_src(p) && t.lines().count() > 1000)
        .map(|(p, t)| format!("{p}: {} lines", t.lines().count()))
        .collect()
}

/// Every `.rs` file under `crates/`, `examples/`, `shims/` and `tests/`
/// but this one, read once.
fn tree() -> &'static [Source] {
    static TREE: OnceLock<Vec<Source>> = OnceLock::new();
    TREE.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut out = Vec::new();
        for dir in ["crates", "examples", "shims", "tests"] {
            walk(root, &root.join(dir), &mut out);
        }
        out.retain(|(p, _)| p != "tests/architecture.rs");
        assert!(out.len() > 100, "the source tree was not found under {}", root.display());
        out
    })
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<Source>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                walk(root, &path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).expect("under the root").to_string_lossy();
            let text = std::fs::read_to_string(&path).expect("readable source");
            out.push((rel.replace('\\', "/"), text));
        }
    }
}

/// The real tree with `path` replaced by (or, if new, added as) `text`.
fn planted(path: &str, text: &str) -> Vec<Source> {
    let mut tree: Vec<Source> = tree().iter().filter(|(p, _)| p != path).cloned().collect();
    tree.push((path.to_string(), text.to_string()));
    tree
}

fn holds(guard: Guard, reason: &str) {
    let hits = guard(tree());
    assert!(hits.is_empty(), "{reason}:\n{}", hits.join("\n"));
}

fn catches(guard: Guard, path: &str, text: &str) {
    assert!(!guard(&planted(path, text)).is_empty(), "a violation planted in {path} went unseen");
}

#[test]
fn removed_knobs_stay_removed_in_the_tree() {
    holds(removed_knobs_stay_removed, "a removed knob, mode or staging path reappeared");
}

#[test]
fn removed_knobs_guard_catches_a_plant() {
    let g = removed_knobs_stay_removed;
    catches(g, "crates/lci/src/planted.rs", "pub fn with_rx_capacity() {}\n");
    catches(g, "crates/lci-fabric/src/planted.rs", "struct CtxPool;\n");
    catches(g, "crates/lci/src/comp/planted.rs", "enum CqImpl {}\n");
    catches(g, "crates/lci-fabric/src/planted.rs", "pub enum TdStrategy {}\n");
    catches(g, "examples/planted.rs", "let m = ProgressMode::Thread;\n");
    catches(g, "crates/lci-fabric/src/planted.rs", "enum InPayload {}\n");
    catches(g, "crates/lci/src/coll/planted.rs", "fn post_windowed() {}\n");
    catches(g, "crates/lci/src/coll/planted.rs", "const SHELF_CAP: usize = 128;\n");
    catches(g, "crates/lci/src/coll/planted.rs", "grant::fold_in_place(rt, to, g, 0, &p, op)?;\n");
    catches(g, "crates/lci/src/coll/plan/planted.rs", "    in_place: bool,\n");
    catches(g, "crates/lci-fabric/src/planted.rs", "fn post_send_batch(&self) {}\n");
    catches(g, "crates/lci/src/planted.rs", "pub struct Placement;\n");
    catches(g, "crates/lci/src/device/planted.rs", "    RdvChunk { send_id: u32 },\n");
    catches(g, "crates/lci/src/device/planted.rs", "fn claim_eager(&self) {}\n");
}

#[test]
fn collectives_lend_through_one_door_in_the_tree() {
    holds(collectives_lend_through_one_door, "a collective stages, or lends through a second door");
}

#[test]
fn collectives_guard_catches_a_plant() {
    let g = collectives_lend_through_one_door;
    catches(g, "crates/lci/src/coll/planted.rs", "let b = stage_copy(x);\n");
    catches(g, "crates/lci/src/coll/planted.rs", "let b = st.take_box(len);\n");
    catches(g, "crates/lci/src/coll/planted.rs", "rt.post_send_x(to, buf, tag, comp);\n");
    // A second post site under any name, `naive.rs` included.
    catches(g, "crates/lci/src/coll/naive.rs", "rt.post_send_x(to, buf, tag, comp);\n");
    catches(g, "crates/lci/src/device/planted.rs", "let l = Lent::new(ptr, len);\n");
    // A removed collective's state back in the runtime.
    let spare = "    pub coll_spare: Mutex<Vec<CollState>>,\n";
    catches(removed_knobs_stay_removed, "crates/lci/src/runtime.rs", spare);
}

#[test]
fn lci_spawns_no_thread_and_parks_on_nothing_in_the_tree() {
    holds(
        lci_spawns_no_thread_and_parks_on_nothing,
        "lci spawns, parks, or yields outside wait.rs",
    );
}

#[test]
fn no_thread_guard_catches_a_plant() {
    let g = lci_spawns_no_thread_and_parks_on_nothing;
    catches(g, "crates/lci/src/planted.rs", "std::thread::Builder::new();\n");
    catches(g, "crates/lci/src/planted.rs", "let c = Condvar::new();\n");
    catches(g, "crates/lci/src/planted.rs", "fn spin() { std::thread::yield_now() }\n");
    // A unit test below the module's `#[cfg(test)]` may yield.
    let test_only = "fn f() {}\n#[cfg(test)]\nmod tests { fn t() { std::thread::yield_now() } }\n";
    assert!(g(&planted("crates/lci/src/planted.rs", test_only)).is_empty());
    // So may a module's unit tests in a file of their own.
    let tests_file = "fn t() { std::thread::yield_now() }\n";
    assert!(g(&planted("crates/lci/src/planted/tests.rs", tests_file)).is_empty());
}

#[test]
fn threads_start_only_on_the_launcher_side_in_the_tree() {
    holds(threads_start_only_on_the_launcher_side, "a thread starts outside the launcher");
}

#[test]
fn thread_start_guard_catches_a_plant() {
    let g = threads_start_only_on_the_launcher_side;
    let bridge = "fn spawn_bridge() {\n    std::thread::Builder::new()\n        .name(n)\n        .spawn(move || {})\n        .unwrap();\n}\n";
    catches(g, "crates/lci-fabric/src/tcp/mod.rs", bridge);
    // Below a `mod tests;` that names the module's own file.
    catches(g, "crates/lci-fabric/src/tcp/mod.rs", &format!("#[cfg(test)]\nmod tests;\n{bridge}"));
    catches(g, "crates/lci/src/planted.rs", "let t = std::thread::spawn(|| ());\n");
    catches(g, "crates/lci-fabric/src/planted.rs", "std::thread::scope(|s| ());\n");
    // The launcher side, a comment and a unit test may start threads.
    assert!(g(&planted("crates/lci-fabric/src/tcp/oob.rs", bridge)).is_empty());
    assert!(g(&planted("crates/lci/src/planted.rs", "// std::thread::spawn(f)\n")).is_empty());
    let test_only =
        "fn f() {}\n#[cfg(test)]\nmod tests { fn t() { std::thread::spawn(|| ()); } }\n";
    assert!(g(&planted("crates/lci-fabric/src/planted.rs", test_only)).is_empty());
}

#[test]
fn one_device_core_in_the_tree() {
    holds(one_device_core, "not exactly one NetDevice implementor");
}

#[test]
fn one_device_core_guard_catches_a_plant() {
    let g = one_device_core;
    catches(g, "crates/lci-fabric/src/planted.rs", "impl NetDevice for Second {}\n");
    catches(g, "crates/lci-fabric/src/sim_ibv.rs", "// a provider file\n");
}

#[test]
fn ring_stays_lock_free_in_the_tree() {
    holds(ring_stays_lock_free, "the MpmcRing ring is not lock-free");
}

#[test]
fn ring_guard_catches_a_plant() {
    const RING: &str = "crates/lci-fabric/src/sync/mpmc_ring.rs";
    for lock in ["SpinLock<", "Spin<", "Mutex<"] {
        let locked = format!(
            "pub struct MpmcRing<T> {{\n    slots: {lock}Vec<T>>,\n}}\nimpl<T> Drop for MpmcRing<T> {{}}\n"
        );
        catches(ring_stays_lock_free, RING, &locked);
    }
    catches(ring_stays_lock_free, RING, "// no ring here\n");
}

#[test]
fn packets_hold_no_pool_refcount_in_the_tree() {
    holds(packets_hold_no_pool_refcount, "a packet holds a refcount on its pool");
}

#[test]
fn pool_refcount_guard_catches_a_plant() {
    let g = packets_hold_no_pool_refcount;
    catches(
        g,
        "crates/lci/src/packet_pool.rs",
        "pub struct Packet {\n    shared: Arc<PoolShared>,\n}\n",
    );
    // Another crate's pool state of that name is its own business.
    assert!(g(&planted("crates/amt/src/planted.rs", "struct S(Arc<PoolShared>);\n")).is_empty());
}

#[test]
fn sources_stay_readable_in_the_tree() {
    holds(sources_stay_readable, "a source file is over 1000 lines");
}

#[test]
fn readability_guard_catches_a_plant() {
    catches(sources_stay_readable, "crates/lci/src/planted.rs", &"// line\n".repeat(1001));
}

#[test]
fn post_builder_inlines_in_the_tree() {
    holds(post_builder_inlines, "an OFF builder method or Runtime::post_* is not #[inline]");
}

#[test]
fn post_builder_guard_catches_a_plant() {
    const POST: &str = "crates/lci/src/post.rs";
    let g = post_builder_inlines;
    let setter = "impl<'a> CommBuilder<'a> {\n    /// Sets the tag.\n    pub fn tag(mut self, tag: Tag) -> Self {\n        self\n    }\n}\n";
    catches(g, POST, setter);
    let derived = "impl Runtime {\n    #[must_use]\n    pub fn post_send_x(&self) -> CommBuilder<'_> {\n        todo!()\n    }\n}\n";
    catches(g, POST, derived);
    catches(g, POST, "// no builder here\n");
    let inlined = setter.replace("    pub fn", "    #[inline]\n    pub fn");
    assert!(g(&planted(POST, &inlined)).is_empty());
}

#[test]
fn post_args_cross_by_reference_in_the_tree() {
    holds(post_args_cross_by_reference, "a post function takes CommArgs by value");
}

#[test]
fn post_args_guard_catches_a_plant() {
    let g = post_args_cross_by_reference;
    let eager = "crates/lci/src/device/eager.rs";
    catches(
        g,
        eager,
        "    pub(super) fn post_send_impl(&self, mut args: CommArgs) -> Result<PostResult> {\n",
    );
    let rdv = "    pub(super) fn post_rendezvous(\n        &self,\n        args: CommArgs,\n        buf: SendBuf,\n    ) -> Result<PostResult> {\n";
    catches(g, "crates/lci/src/device/rdv.rs", rdv);
    catches(
        g,
        "crates/lci/src/device.rs",
        "    fn post_comm_inner(&self, args: CommArgs) -> Result<PostResult> {\n",
    );
    let by_ref = rdv.replace("args: CommArgs", "args: &mut CommArgs");
    assert!(g(&planted("crates/lci/src/device/rdv.rs", &by_ref)).is_empty());
}
