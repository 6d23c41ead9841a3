//! # LCW — the Lightweight Communication Wrapper (paper §5.2)
//!
//! To ensure uniformity across communication libraries, the paper builds
//! a thin wrapper (LCW) over LCI, MPI, and GASNet-EX and writes the
//! microbenchmarks against it. This crate is that wrapper: simple
//! non-blocking active messages and send-receive primitives over
//!
//! * **LCI** (shared or dedicated-device mode),
//! * **MPI-sim** (`MPI_Isend` / pre-posted `MPI_Irecv` for AMs),
//! * **VCI-sim** (*mpix*; dedicated mode uses one VCI per thread),
//! * **GASNet-sim** (`am_request_medium`; send-receive unsupported,
//!   as in the paper).
//!
//! A [`World`] is created once per rank; each benchmark thread then takes
//! an [`Endpoint`] (its per-thread view: a dedicated device/VCI in
//! dedicated mode, a handle to the shared resources otherwise).

mod config;
mod endpoint;
mod world;

pub use config::{BackendKind, Platform, ResourceMode, WorldConfig};
pub use endpoint::{Endpoint, Msg, QuiesceError, RecvToken};
pub use world::World;

#[cfg(test)]
mod tests {
    use super::*;
    use lci_fabric::Fabric;

    /// Runs the AM echo roundtrip.
    fn roundtrip(backend: BackendKind, platform: Platform, mode: ResourceMode) {
        let cfg = WorldConfig::new(backend, platform, mode);
        let fabric = Fabric::new(2);
        let f2 = fabric.clone();
        let t = std::thread::spawn(move || {
            let w = World::new(f2, 1, cfg);
            w.rank(); // silence
            let mut ep = w.endpoint(0);
            // Receive an AM, echo it back.
            let msg = loop {
                ep.progress();
                if let Some(m) = ep.poll_msg() {
                    break m;
                }
            };
            assert_eq!(msg.src, 0);
            assert_eq!(msg.data, vec![9u8; 32]);
            while !ep.send_am(0, &msg.data, msg.tag + 1) {
                ep.progress();
            }
            // Keep progressing until the echo has drained from our side
            // (a fixed iteration count races against the peer's matching
            // on the baseline backends; `quiesced` is the contract).
            while !ep.quiesced() {
                ep.progress();
                std::thread::yield_now();
            }
        });
        let w = World::new(fabric, 0, cfg);
        let mut ep = w.endpoint(0);
        while !ep.send_am(1, &[9u8; 32], 5) {
            ep.progress();
        }
        let reply = loop {
            ep.progress();
            if let Some(m) = ep.poll_msg() {
                break m;
            }
        };
        assert_eq!(reply.tag, 6);
        assert_eq!(reply.data, vec![9u8; 32]);
        t.join().unwrap();
    }

    #[test]
    fn am_roundtrip_lci_shared() {
        roundtrip(BackendKind::Lci, Platform::Expanse, ResourceMode::Shared);
    }

    #[test]
    fn am_roundtrip_lci_dedicated() {
        roundtrip(BackendKind::Lci, Platform::Expanse, ResourceMode::Dedicated(1));
    }

    #[test]
    fn am_roundtrip_lci_delta() {
        roundtrip(BackendKind::Lci, Platform::Delta, ResourceMode::Shared);
    }

    #[test]
    fn am_roundtrip_mpi() {
        roundtrip(BackendKind::Mpi, Platform::Expanse, ResourceMode::Shared);
    }

    #[test]
    fn am_roundtrip_vci() {
        roundtrip(BackendKind::Vci, Platform::Delta, ResourceMode::Dedicated(1));
    }

    #[test]
    fn am_roundtrip_gasnet() {
        roundtrip(BackendKind::Gasnet, Platform::Expanse, ResourceMode::Shared);
    }

    #[test]
    fn sendrecv_lci_and_mpi() {
        for backend in [BackendKind::Lci, BackendKind::Mpi] {
            let fabric = Fabric::new(2);
            let cfg = WorldConfig::new(backend, Platform::Expanse, ResourceMode::Shared);
            let f2 = fabric.clone();
            let t = std::thread::spawn(move || {
                let w = World::new(f2, 1, cfg);
                let mut ep = w.endpoint(0);
                let tok = ep.post_recv(0, 3, 4096);
                loop {
                    ep.progress();
                    if let Some(m) = ep.test_recv(&tok) {
                        assert_eq!(m.data, vec![4u8; 2048]);
                        break;
                    }
                    std::thread::yield_now();
                }
            });
            let w = World::new(fabric, 0, cfg);
            assert!(w.supports_sendrecv());
            let mut ep = w.endpoint(0);
            while !ep.send(1, &vec![4u8; 2048], 3) {
                ep.progress();
            }
            // Drain until the send no longer needs this side's progress:
            // the MPI baseline moves a buffered send only on *sender*
            // progress, and the receiver may post its matching recv
            // arbitrarily late (thread-spawn race) — a fixed iteration
            // count here hangs the receiver intermittently.
            while !ep.quiesced() {
                ep.progress();
                std::thread::yield_now();
            }
            t.join().unwrap();
        }
    }

    #[test]
    fn gasnet_lacks_sendrecv() {
        let fabric = Fabric::new(1);
        let w = World::new(
            fabric,
            0,
            WorldConfig::new(BackendKind::Gasnet, Platform::Expanse, ResourceMode::Shared),
        );
        assert!(!w.supports_sendrecv());
    }
}
