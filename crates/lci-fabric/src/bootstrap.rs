//! Multi-process bootstrap: an environment-variable rendezvous plus a
//! launcher that re-executes the current binary as the worker ranks,
//! for both real transports (shm segment, tcp mesh).
//!
//! The protocol is deliberately tiny (the PMI of this repo):
//!
//! 1. The launcher creates the rendezvous resource — a fully-sized
//!    segment file (under `/dev/shm` when present) for shm, or a root
//!    listener socket for tcp — and spawns `nranks` copies of the
//!    current executable with `LCI_RANK`, `LCI_NRANKS`, and either
//!    `LCI_SHM_PATH` or `LCI_TCP_ROOT` set.
//! 2. Each child calls [`launch`] (or [`from_env`]) and attaches: shm
//!    children map the file and block on the attach barrier; tcp
//!    children dial the root, exchange mesh listener addresses through
//!    it, and build the full socket mesh.
//! 3. The launcher waits for the children and reports their exit codes.
//!    A per-child reaper marks the peer dead (shm: `PEER_DIED` slot;
//!    tcp: the mesh sockets EOF on their own) so survivors observe the
//!    death instead of hanging.

use crate::fabric::Fabric;
#[cfg(unix)]
use crate::shm::os;
#[cfg(unix)]
use crate::shm::segment::{ShmSegment, GEOMETRY, PEER_DIED};
use std::ffi::OsString;
use std::net::SocketAddr;
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Environment variable carrying the segment path to children (shm).
pub const ENV_PATH: &str = "LCI_SHM_PATH";
/// Environment variable carrying the root-service address (tcp).
pub const ENV_TCP_ROOT: &str = "LCI_TCP_ROOT";
/// Environment variable overriding the host tcp mesh listeners bind
/// (default loopback; set to a routable address for real cross-host
/// jobs).
pub const ENV_TCP_HOST: &str = "LCI_TCP_HOST";
/// Environment variable carrying the child's rank.
pub const ENV_RANK: &str = "LCI_RANK";
/// Environment variable carrying the job size.
pub const ENV_NRANKS: &str = "LCI_NRANKS";
/// Environment variable selecting a transport by name (`sim-ibv`,
/// `sim-ofi`, `shm`, `tcp`); read by the higher layers, re-exported here
/// so the whole rendezvous contract lives in one module.
pub const ENV_TRANSPORT: &str = "LCI_TRANSPORT";

/// How long children wait for the rendezvous and for their peers.
const ATTACH_TIMEOUT: Duration = Duration::from_secs(30);

/// What went wrong while joining (or parsing) a multi-process job.
/// Every variant is a *typed* surface for a condition that previously
/// panicked or hid inside an opaque I/O error.
#[derive(Debug)]
pub enum BootstrapError {
    /// A rendezvous variable the selected mode requires is absent.
    MissingEnv { var: &'static str },
    /// A rendezvous variable is present but unparseable.
    MalformedEnv { var: &'static str, value: String },
    /// `LCI_RANK` does not fit the job size.
    RankOutOfRange { rank: usize, nranks: usize },
    /// A peer (or the rendezvous resource) did not appear in time.
    AttachTimeout { what: &'static str },
    /// The platform cannot run this mode at all.
    Unsupported(&'static str),
    /// Everything else (socket/file errors during attach).
    Io(std::io::Error),
}

impl std::fmt::Display for BootstrapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootstrapError::MissingEnv { var } => {
                write!(f, "bootstrap: required environment variable {var} is not set")
            }
            BootstrapError::MalformedEnv { var, value } => {
                write!(f, "bootstrap: environment variable {var} has unparseable value {value:?}")
            }
            BootstrapError::RankOutOfRange { rank, nranks } => {
                write!(f, "bootstrap: rank {rank} out of range for a {nranks}-rank job")
            }
            BootstrapError::AttachTimeout { what } => {
                write!(f, "bootstrap: timed out waiting for {what}")
            }
            BootstrapError::Unsupported(what) => write!(f, "bootstrap: {what}"),
            BootstrapError::Io(e) => write!(f, "bootstrap: {e}"),
        }
    }
}

impl std::error::Error for BootstrapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BootstrapError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BootstrapError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::TimedOut {
            BootstrapError::AttachTimeout { what: "a bootstrap I/O operation" }
        } else {
            BootstrapError::Io(e)
        }
    }
}

impl From<BootstrapError> for std::io::Error {
    fn from(e: BootstrapError) -> Self {
        match e {
            BootstrapError::Io(io) => io,
            BootstrapError::MissingEnv { .. } | BootstrapError::MalformedEnv { .. } => {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
            }
            BootstrapError::RankOutOfRange { .. } => {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
            }
            BootstrapError::AttachTimeout { .. } => {
                std::io::Error::new(std::io::ErrorKind::TimedOut, e.to_string())
            }
            BootstrapError::Unsupported(_) => {
                std::io::Error::new(std::io::ErrorKind::Unsupported, e.to_string())
            }
        }
    }
}

/// The rendezvous a child's environment describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rendezvous {
    /// Attach the named shm segment as `rank`.
    Shm { path: String, rank: usize },
    /// Dial the tcp root service as `rank` of `nranks`.
    Tcp { root: SocketAddr, rank: usize, nranks: usize },
}

fn env_usize(
    lookup: &impl Fn(&str) -> Option<String>,
    var: &'static str,
) -> Result<usize, BootstrapError> {
    let v = lookup(var).ok_or(BootstrapError::MissingEnv { var })?;
    v.trim().parse().map_err(|_| BootstrapError::MalformedEnv { var, value: v })
}

/// Decides which rendezvous (if any) an environment describes, with
/// every malformation typed. Pure over `lookup` so the decision table is
/// unit-testable without touching the process environment.
pub fn parse_rendezvous(
    lookup: impl Fn(&str) -> Option<String>,
) -> Result<Option<Rendezvous>, BootstrapError> {
    if let Some(path) = lookup(ENV_PATH) {
        let rank = env_usize(&lookup, ENV_RANK)?;
        return Ok(Some(Rendezvous::Shm { path, rank }));
    }
    if let Some(root) = lookup(ENV_TCP_ROOT) {
        let addr: SocketAddr = root
            .trim()
            .parse()
            .map_err(|_| BootstrapError::MalformedEnv { var: ENV_TCP_ROOT, value: root })?;
        let rank = env_usize(&lookup, ENV_RANK)?;
        let nranks = env_usize(&lookup, ENV_NRANKS)?;
        if rank >= nranks {
            return Err(BootstrapError::RankOutOfRange { rank, nranks });
        }
        return Ok(Some(Rendezvous::Tcp { root: addr, rank, nranks }));
    }
    Ok(None)
}

/// The outcome of [`launch`]: either this process is one of the worker
/// ranks, or it was the launcher and the whole job has finished.
pub enum Launch {
    /// This process is a worker rank; run the job body.
    Child(ChildCtx),
    /// This process spawned the workers and they have all exited.
    Parent(ParentReport),
}

/// Worker-side context: an attached [`Fabric`] whose other ranks are
/// separate OS processes.
pub struct ChildCtx {
    /// This process's rank.
    pub rank: usize,
    /// Total ranks in the job.
    pub nranks: usize,
    /// The attached fabric (OOB collectives route through the segment
    /// or the tcp root service).
    pub fabric: Arc<Fabric>,
}

/// Launcher-side report.
pub struct ParentReport {
    /// Exit codes in rank order (`-1` for signal-killed children).
    pub exit_codes: Vec<i32>,
}

impl ParentReport {
    /// Whether every rank exited 0.
    pub fn all_ok(&self) -> bool {
        self.exit_codes.iter().all(|&c| c == 0)
    }
}

/// Attaches to a spawner-provided rendezvous if one is present in the
/// environment; `Ok(None)` when this process was started directly.
pub fn from_env() -> Result<Option<ChildCtx>, BootstrapError> {
    #[cfg(unix)]
    {
        match parse_rendezvous(|k| std::env::var(k).ok())? {
            None => Ok(None),
            Some(Rendezvous::Shm { path, rank }) => attach_shm(&path, rank).map(Some),
            Some(Rendezvous::Tcp { root, rank, nranks }) => {
                attach_tcp(root, rank, nranks).map(Some)
            }
        }
    }
    #[cfg(not(unix))]
    {
        match parse_rendezvous(|k| std::env::var(k).ok())? {
            None => Ok(None),
            Some(_) => {
                Err(BootstrapError::Unsupported("multi-process transports require a unix host"))
            }
        }
    }
}

#[cfg(unix)]
fn attach_shm(path: &str, rank: usize) -> Result<ChildCtx, BootstrapError> {
    let seg = Arc::new(
        ShmSegment::attach_file(PathBuf::from(path).as_path(), ATTACH_TIMEOUT)
            .map_err(map_attach_err("the shm segment file"))?,
    );
    let nranks = seg.nranks();
    if rank >= nranks {
        return Err(BootstrapError::RankOutOfRange { rank, nranks });
    }
    seg.attach(rank);
    seg.attach_barrier(ATTACH_TIMEOUT).map_err(map_attach_err("the shm attach barrier"))?;
    Ok(ChildCtx { rank, nranks, fabric: Fabric::attached(seg, rank) })
}

#[cfg(unix)]
fn map_attach_err(what: &'static str) -> impl Fn(std::io::Error) -> BootstrapError {
    move |e| {
        if e.kind() == std::io::ErrorKind::TimedOut {
            BootstrapError::AttachTimeout { what }
        } else {
            BootstrapError::Io(e)
        }
    }
}

/// Builds the tcp mesh: dial the root, allgather listener addresses,
/// then connect one socket per unordered rank pair (this rank dials
/// every lower rank; higher ranks dial us).
#[cfg(unix)]
fn attach_tcp(root: SocketAddr, rank: usize, nranks: usize) -> Result<ChildCtx, BootstrapError> {
    use crate::tcp::oob::OobClient;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    let deadline = Instant::now() + ATTACH_TIMEOUT;
    let oob = OobClient::connect(root, rank, nranks, deadline)
        .map_err(map_attach_err("the tcp root service"))?;
    let host = std::env::var(ENV_TCP_HOST).unwrap_or_else(|_| "127.0.0.1".into());
    let listener = TcpListener::bind((host.as_str(), 0)).map_err(BootstrapError::Io)?;
    let my_addr = listener.local_addr().map_err(BootstrapError::Io)?;
    let blobs = oob
        .allgather(my_addr.to_string().as_bytes())
        .map_err(map_attach_err("the tcp address exchange"))?;
    let mut addrs = Vec::with_capacity(nranks);
    for b in &blobs {
        let s = std::str::from_utf8(b).map_err(|_| {
            BootstrapError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "tcp mesh address is not utf-8",
            ))
        })?;
        addrs.push(s.parse::<SocketAddr>().map_err(|_| {
            BootstrapError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("tcp mesh address {s:?} is unparseable"),
            ))
        })?);
    }
    let mut conns: Vec<Option<TcpStream>> = (0..nranks).map(|_| None).collect();
    // Dial every lower rank, identifying ourselves with a 4-byte rank.
    for (peer, addr) in addrs.iter().enumerate().take(rank) {
        let mut s = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(BootstrapError::Io(e)),
            }
        };
        s.set_nodelay(true).map_err(BootstrapError::Io)?;
        s.write_all(&(rank as u32).to_le_bytes()).map_err(BootstrapError::Io)?;
        conns[peer] = Some(s);
    }
    // Accept every higher rank.
    listener.set_nonblocking(true).map_err(BootstrapError::Io)?;
    let mut need = nranks - rank - 1;
    while need > 0 {
        if Instant::now() >= deadline {
            return Err(BootstrapError::AttachTimeout { what: "tcp mesh peers" });
        }
        match listener.accept() {
            Ok((mut s, _)) => {
                // Accepted sockets are blocking regardless of the
                // listener flag; bound the hello read anyway.
                s.set_nonblocking(false).map_err(BootstrapError::Io)?;
                s.set_read_timeout(Some(Duration::from_secs(5))).map_err(BootstrapError::Io)?;
                let mut hello = [0u8; 4];
                if s.read_exact(&mut hello).is_err() {
                    continue; // stray connection: drop it
                }
                let peer = u32::from_le_bytes(hello) as usize;
                if peer <= rank || peer >= nranks || conns[peer].is_some() {
                    continue;
                }
                s.set_read_timeout(None).map_err(BootstrapError::Io)?;
                conns[peer] = Some(s);
                need -= 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(BootstrapError::Io(e)),
        }
    }
    // Everyone's mesh is complete before any data-path frame flows.
    oob.barrier().map_err(map_attach_err("the tcp mesh barrier"))?;
    Ok(ChildCtx { rank, nranks, fabric: Fabric::attached_tcp(conns, rank, nranks, oob) })
}

static SEG_COUNTER: AtomicU64 = AtomicU64::new(0);

#[cfg(unix)]
fn segment_path() -> PathBuf {
    let dir = if cfg!(target_os = "linux") && PathBuf::from("/dev/shm").is_dir() {
        PathBuf::from("/dev/shm")
    } else {
        std::env::temp_dir()
    };
    dir.join(format!(
        "lci-seg-{}-{}",
        std::process::id(),
        SEG_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Spawns `nranks` copies of the current executable with `child_args`,
/// connected through a fresh rendezvous, and waits for them. The
/// transport is shm unless `LCI_TRANSPORT=tcp` is set in this
/// (launcher) process's environment.
///
/// `timeout` bounds the whole job; on expiry the remaining children are
/// SIGKILLed (and reported as `-1`).
pub fn spawn_local(
    nranks: usize,
    child_args: &[OsString],
    timeout: Duration,
) -> std::io::Result<ParentReport> {
    #[cfg(not(unix))]
    {
        let _ = (nranks, child_args, timeout);
        return Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "multi-process transports require a unix host",
        ));
    }
    #[cfg(unix)]
    {
        let tcp = std::env::var(ENV_TRANSPORT).is_ok_and(|v| v.trim() == "tcp");
        if tcp {
            spawn_local_tcp(nranks, child_args, timeout)
        } else {
            spawn_local_unix(nranks, child_args, timeout)
        }
    }
}

/// Waits for every reaper to report, SIGKILLing stragglers at the
/// deadline. Shared by the shm and tcp launchers.
#[cfg(unix)]
fn collect_exit_codes(
    rx: std::sync::mpsc::Receiver<(usize, i32)>,
    pids: &[u64],
    nranks: usize,
    timeout: Duration,
) -> Vec<i32> {
    let deadline = std::time::Instant::now() + timeout;
    let mut codes = vec![i32::MIN; nranks];
    let mut pending = nranks;
    while pending > 0 {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        match rx.recv_timeout(left) {
            Ok((rank, code)) => {
                codes[rank] = code;
                pending -= 1;
            }
            Err(_) => {
                for (rank, &pid) in pids.iter().enumerate() {
                    if codes[rank] == i32::MIN {
                        os::kill_process(pid);
                        codes[rank] = -1;
                    }
                }
                break;
            }
        }
    }
    for c in codes.iter_mut() {
        if *c == i32::MIN {
            *c = -1;
        }
    }
    codes
}

#[cfg(unix)]
fn spawn_local_unix(
    nranks: usize,
    child_args: &[OsString],
    timeout: Duration,
) -> std::io::Result<ParentReport> {
    let path = segment_path();
    let seg = Arc::new(ShmSegment::create_file(&path, nranks, GEOMETRY)?);
    let exe = std::env::current_exe()?;
    let mut pids = Vec::with_capacity(nranks);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, i32)>();
    for rank in 0..nranks {
        let child = std::process::Command::new(&exe)
            .args(child_args)
            .env(ENV_PATH, &path)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_NRANKS, nranks.to_string())
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => {
                seg.unlink();
                for &pid in &pids {
                    os::kill_process(pid);
                }
                return Err(e);
            }
        };
        pids.push(child.id() as u64);
        // Reaper: wait for the child and mark its slot dead if it never
        // detached cleanly (the CAS inside only fires from ATTACHED, so
        // a clean exit — slot already EXITED — is left alone).
        let seg = seg.clone();
        let tx = tx.clone();
        std::thread::spawn(move || {
            let code = match child.wait() {
                Ok(st) => st.code().unwrap_or(-1),
                Err(_) => -1,
            };
            seg.set_peer_state(rank, PEER_DIED);
            let _ = tx.send((rank, code));
        });
    }
    drop(tx);
    // Unlink as soon as everyone is attached; if a child dies first the
    // barrier times out and we fall through to the unconditional unlink.
    if seg.attach_barrier(ATTACH_TIMEOUT).is_ok() {
        seg.unlink();
    }
    let codes = collect_exit_codes(rx, &pids, nranks, timeout);
    seg.unlink();
    Ok(ParentReport { exit_codes: codes })
}

/// The tcp launcher: hosts the root service in this process and hands
/// children its address. No filesystem artifacts — the root listener
/// closes with its accept thread, and every mesh socket dies with the
/// children.
#[cfg(unix)]
fn spawn_local_tcp(
    nranks: usize,
    child_args: &[OsString],
    timeout: Duration,
) -> std::io::Result<ParentReport> {
    use crate::tcp::oob::RootServer;
    let accept_deadline = std::time::Instant::now() + ATTACH_TIMEOUT;
    let root = RootServer::spawn("127.0.0.1", nranks, accept_deadline)?;
    let root_addr = root.addr().to_string();
    let exe = std::env::current_exe()?;
    let mut pids = Vec::with_capacity(nranks);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, i32)>();
    for rank in 0..nranks {
        let child = std::process::Command::new(&exe)
            .args(child_args)
            .env(ENV_TCP_ROOT, &root_addr)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_NRANKS, nranks.to_string())
            .env(ENV_TRANSPORT, "tcp")
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => {
                for &pid in &pids {
                    os::kill_process(pid);
                }
                return Err(e);
            }
        };
        pids.push(child.id() as u64);
        // Reaper: a dying child EOFs its root and mesh sockets, which is
        // all the death notification tcp peers need.
        let tx = tx.clone();
        std::thread::spawn(move || {
            let code = match child.wait() {
                Ok(st) => st.code().unwrap_or(-1),
                Err(_) => -1,
            };
            let _ = tx.send((rank, code));
        });
    }
    drop(tx);
    let codes = collect_exit_codes(rx, &pids, nranks, timeout);
    Ok(ParentReport { exit_codes: codes })
}

/// One-call harness: in a freshly-started process, spawns the job; in a
/// spawned child, attaches and returns the worker context. Test and
/// example code writes
///
/// ```ignore
/// match bootstrap::launch(2, &args, timeout)? {
///     Launch::Child(ctx) => run_rank(ctx),
///     Launch::Parent(report) => assert!(report.all_ok()),
/// }
/// ```
pub fn launch(
    nranks: usize,
    child_args: &[OsString],
    timeout: Duration,
) -> std::io::Result<Launch> {
    if let Some(ctx) = from_env()? {
        return Ok(Launch::Child(ctx));
    }
    spawn_local(nranks, child_args, timeout).map(Launch::Parent)
}

/// The argument vector that re-runs exactly one libtest test in a child
/// process: `<name> --exact --nocapture --test-threads=1`.
pub fn test_child_args(test_name: &str) -> Vec<OsString> {
    vec![
        OsString::from(test_name),
        OsString::from("--exact"),
        OsString::from("--nocapture"),
        OsString::from("--test-threads=1"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn env(pairs: &[(&'static str, &str)]) -> impl Fn(&str) -> Option<String> {
        let map: HashMap<String, String> =
            pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        move |k: &str| map.get(k).cloned()
    }

    #[test]
    fn empty_env_is_no_rendezvous() {
        assert_eq!(parse_rendezvous(env(&[])).unwrap(), None);
    }

    #[test]
    fn shm_env_parses() {
        let r = parse_rendezvous(env(&[(ENV_PATH, "/dev/shm/lci-seg-1"), (ENV_RANK, "2")]))
            .unwrap()
            .expect("rendezvous");
        assert_eq!(r, Rendezvous::Shm { path: "/dev/shm/lci-seg-1".into(), rank: 2 });
    }

    #[test]
    fn shm_missing_rank_is_typed() {
        let e = parse_rendezvous(env(&[(ENV_PATH, "/tmp/seg")])).unwrap_err();
        assert!(matches!(e, BootstrapError::MissingEnv { var } if var == ENV_RANK));
    }

    #[test]
    fn malformed_rank_is_typed() {
        let e = parse_rendezvous(env(&[(ENV_PATH, "/tmp/seg"), (ENV_RANK, "banana")])).unwrap_err();
        assert!(matches!(e, BootstrapError::MalformedEnv { var, .. } if var == ENV_RANK));
    }

    #[test]
    fn tcp_env_parses() {
        let r = parse_rendezvous(env(&[
            (ENV_TCP_ROOT, "127.0.0.1:5000"),
            (ENV_RANK, "1"),
            (ENV_NRANKS, "4"),
        ]))
        .unwrap()
        .expect("rendezvous");
        assert_eq!(
            r,
            Rendezvous::Tcp { root: "127.0.0.1:5000".parse().unwrap(), rank: 1, nranks: 4 }
        );
    }

    #[test]
    fn tcp_malformed_root_is_typed() {
        let e = parse_rendezvous(env(&[
            (ENV_TCP_ROOT, "not-an-addr"),
            (ENV_RANK, "0"),
            (ENV_NRANKS, "2"),
        ]))
        .unwrap_err();
        assert!(matches!(e, BootstrapError::MalformedEnv { var, .. } if var == ENV_TCP_ROOT));
    }

    #[test]
    fn tcp_missing_nranks_is_typed() {
        let e = parse_rendezvous(env(&[(ENV_TCP_ROOT, "127.0.0.1:5000"), (ENV_RANK, "0")]))
            .unwrap_err();
        assert!(matches!(e, BootstrapError::MissingEnv { var } if var == ENV_NRANKS));
    }

    #[test]
    fn tcp_rank_out_of_range_is_typed() {
        let e = parse_rendezvous(env(&[
            (ENV_TCP_ROOT, "127.0.0.1:5000"),
            (ENV_RANK, "4"),
            (ENV_NRANKS, "4"),
        ]))
        .unwrap_err();
        assert!(matches!(e, BootstrapError::RankOutOfRange { rank: 4, nranks: 4 }), "got {e:?}");
    }

    #[test]
    fn shm_takes_precedence_over_tcp() {
        let r = parse_rendezvous(env(&[
            (ENV_PATH, "/tmp/seg"),
            (ENV_TCP_ROOT, "127.0.0.1:5000"),
            (ENV_RANK, "0"),
            (ENV_NRANKS, "2"),
        ]))
        .unwrap()
        .expect("rendezvous");
        assert!(matches!(r, Rendezvous::Shm { .. }));
    }

    #[test]
    fn bootstrap_error_maps_to_io_kinds() {
        let e: std::io::Error = BootstrapError::MissingEnv { var: ENV_RANK }.into();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
        let e: std::io::Error = BootstrapError::AttachTimeout { what: "peers" }.into();
        assert_eq!(e.kind(), std::io::ErrorKind::TimedOut);
        let e: std::io::Error =
            BootstrapError::Unsupported("multi-process transports require a unix host").into();
        assert_eq!(e.kind(), std::io::ErrorKind::Unsupported);
    }
}
