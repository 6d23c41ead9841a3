//! What a [`World`](crate::World) is built from: which library, which
//! transport, how threads share resources, and the LCI-only knobs.

use lci_fabric::DeviceConfig;

/// Which library backs the wrapper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// The LCI runtime of this repository.
    Lci,
    /// Standard-MPI stand-in (single coarse-locked channel).
    Mpi,
    /// MPICH-VCI stand-in (N coarse channels).
    Vci,
    /// GASNet-EX stand-in (shared AM endpoint).
    Gasnet,
}

/// Which transport the fabric devices ride: a simulated platform (paper
/// Table 2) or the real shared-memory wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Platform {
    /// SDSC Expanse: InfiniBand / libibverbs-like fine-grained locks.
    Expanse,
    /// NCSA Delta: Slingshot-11 / libfabric-like endpoint lock.
    Delta,
    /// Same-host shared-memory rings: real inter-process transport (or
    /// the in-process segment when the fabric is not attached).
    ShmHost,
    /// Real TCP sockets: full mesh with vectored write batching
    /// (DESIGN.md §4.12). Works loopback
    /// in-process, or across processes via `LCI_TRANSPORT=tcp`.
    TcpHost,
}

impl Platform {
    /// The fabric device configuration for this platform.
    pub fn device_config(self) -> DeviceConfig {
        match self {
            Platform::Expanse => DeviceConfig::ibv(),
            Platform::Delta => DeviceConfig::ofi(),
            Platform::ShmHost => DeviceConfig::shm(),
            Platform::TcpHost => DeviceConfig::tcp(),
        }
    }

    /// Parses a transport selector (the `--transport` flag /
    /// `LCI_TRANSPORT` values): `sim-ibv`/`ibv`, `sim-ofi`/`ofi`, `shm`,
    /// `tcp`.
    pub fn from_name(name: &str) -> Option<Platform> {
        match name {
            "sim-ibv" | "ibv" => Some(Platform::Expanse),
            "sim-ofi" | "ofi" => Some(Platform::Delta),
            "shm" => Some(Platform::ShmHost),
            "tcp" => Some(Platform::TcpHost),
            _ => None,
        }
    }

    /// Reads the transport selector from `LCI_TRANSPORT`, if set and
    /// valid.
    pub fn from_env() -> Option<Platform> {
        std::env::var(lci_fabric::bootstrap::ENV_TRANSPORT)
            .ok()
            .and_then(|v| Platform::from_name(v.trim()))
    }

    /// The transport selected on the command line (`--transport <name>`
    /// or `--transport=<name>`) or, failing that, by `LCI_TRANSPORT`;
    /// `default` when neither is present. Unknown names panic with the
    /// valid selectors — a silent fallback would bench the wrong wire.
    pub fn from_args_or_env(default: Platform) -> Platform {
        let parse = |v: &str| {
            Platform::from_name(v).unwrap_or_else(|| {
                panic!("unknown transport {v:?}; expected sim-ibv, sim-ofi, shm, or tcp")
            })
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--transport" {
                if let Some(v) = args.next() {
                    return parse(&v);
                }
            } else if let Some(v) = a.strip_prefix("--transport=") {
                return parse(v);
            }
        }
        Platform::from_env().unwrap_or(default)
    }

    /// Like [`from_args_or_env`](Platform::from_args_or_env) but with no
    /// default: `None` means "no selector given, run the full sweep".
    pub fn selected() -> Option<Platform> {
        let mut args = std::env::args().skip(1);
        let explicit = loop {
            let Some(a) = args.next() else { break false };
            if a == "--transport" || a.starts_with("--transport=") {
                break true;
            }
        };
        if explicit {
            Some(Platform::from_args_or_env(Platform::Expanse))
        } else {
            Platform::from_env()
        }
    }

    /// The selector name this platform answers to (round-trips through
    /// [`from_name`](Platform::from_name)).
    pub fn transport_name(self) -> &'static str {
        match self {
            Platform::Expanse => "sim-ibv",
            Platform::Delta => "sim-ofi",
            Platform::ShmHost => "shm",
            Platform::TcpHost => "tcp",
        }
    }
}

/// Resource-sharing pattern of the thread-based mode (paper §5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResourceMode {
    /// All threads share one set of communication resources.
    Shared,
    /// Each thread gets dedicated resources (LCI device / MPICH VCI).
    /// The payload is the thread count.
    Dedicated(usize),
}

/// World configuration.
#[derive(Clone, Copy, Debug)]
pub struct WorldConfig {
    /// Library selection.
    pub backend: BackendKind,
    /// Platform (lock-granularity) selection.
    pub platform: Platform,
    /// Shared vs dedicated resources.
    pub mode: ResourceMode,
    /// Sender-side small-message coalescing (LCI backend only; the
    /// other libraries have no equivalent and ignore it).
    pub coalesce: lci::CoalesceConfig,
    /// Thread-per-core resource layout (LCI backend only): per-core
    /// packet/buffer-pool stripes and per-core stats cells (see
    /// [`lci::Placement`]).
    pub placement: lci::Placement,
    /// Collective pipeline chunk granularity in bytes (LCI backend
    /// only; see [`lci::RuntimeConfig::coll_chunk_size`]).
    pub coll_chunk_size: usize,
}

impl WorldConfig {
    /// A config for `backend` on `platform` with the given mode.
    pub fn new(backend: BackendKind, platform: Platform, mode: ResourceMode) -> Self {
        Self {
            backend,
            platform,
            mode,
            coalesce: lci::CoalesceConfig::default(),
            placement: lci::Placement::default(),
            coll_chunk_size: 64 << 10,
        }
    }

    /// Enables LCI sender-side coalescing with a `max_bytes` flush
    /// threshold. A coalesced frame must fit one packet, so thresholds
    /// above the 8 KiB eager size are capped at world-creation time.
    pub fn with_coalescing(mut self, max_bytes: usize) -> Self {
        self.coalesce = lci::CoalesceConfig::enabled_with_bytes(max_bytes);
        self
    }

    /// Sets the thread-per-core placement policy (LCI backend only).
    pub fn with_placement(mut self, placement: lci::Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the collective pipeline chunk granularity in bytes (LCI
    /// backend only).
    pub fn with_coll_chunk_size(mut self, bytes: usize) -> Self {
        self.coll_chunk_size = bytes;
        self
    }
}
