//! RPC layer (paper §5.3).
//!
//! Each k-mer is statically mapped to a rank by hash and shipped to its
//! home rank as a 16-byte active message. Earlier revisions carried a
//! hand-rolled per-destination aggregation buffer here (HipMer's
//! design); that duplication is gone — batching now happens inside the
//! communication runtime itself via LCI's sender-side coalescing
//! ([`lci::CoalesceConfig`]), configured through
//! [`WorldConfig::with_coalescing`](lcw::WorldConfig). The application
//! just posts one small AM per k-mer; the runtime packs messages bound
//! for the same rank into shared wire frames and the receive side
//! delivers them back as individual AMs, so this module stays
//! backend-agnostic (the MPI/GASNet baselines send the same per-k-mer
//! messages, unaggregated — they have no equivalent facility).

use crate::kmer::KmerCode;
use lcw::{Endpoint, Msg};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes per serialized k-mer.
pub const KMER_BYTES: usize = 16;

/// Sends one k-mer to `dest`, retrying on transient resource shortage.
/// `drain` is invoked while the send path pushes back, so the caller
/// keeps consuming incoming RPCs (deadlock freedom). Bumps the shared
/// per-destination sent counter on success.
pub fn send_kmer(
    ep: &mut Endpoint,
    dest: usize,
    code: KmerCode,
    tag: u32,
    sent: &[AtomicU64],
    drain: &mut impl FnMut(&mut Endpoint),
) {
    let bytes = code.to_le_bytes();
    while !ep.send_am(dest, &bytes, tag) {
        // Retry status: poll and serve to free resources.
        ep.progress();
        drain(ep);
    }
    sent[dest].fetch_add(1, Ordering::AcqRel);
}

/// Decodes the k-mers of an incoming message (one per message when the
/// runtime delivers coalesced sub-messages individually; the
/// `chunks_exact` form also accepts legacy multi-k-mer payloads).
pub fn decode_kmers(msg: &Msg) -> impl Iterator<Item = KmerCode> + '_ {
    msg.data.chunks_exact(KMER_BYTES).map(|c| KmerCode::from_le_bytes(c.try_into().unwrap()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lci_fabric::Fabric;
    use lcw::{BackendKind, Platform, ResourceMode, World, WorldConfig};
    use std::sync::Arc;

    #[test]
    fn runtime_coalescing_batches_and_counts() {
        let fabric = Fabric::new(2);
        let cfg = WorldConfig::new(BackendKind::Lci, Platform::Expanse, ResourceMode::Shared)
            .with_coalescing(1024);
        let f2 = fabric.clone();
        let receiver = std::thread::spawn(move || {
            let w = World::new(f2, 1, cfg);
            let mut ep = w.endpoint(0);
            let mut got: Vec<u128> = Vec::new();
            while got.len() < 1000 {
                ep.progress();
                if let Some(m) = ep.poll_msg() {
                    assert_eq!(m.tag, 1);
                    assert_eq!(m.data.len(), KMER_BYTES);
                    got.extend(decode_kmers(&m));
                }
            }
            got.sort_unstable();
            assert_eq!(got, (0..1000u128).collect::<Vec<_>>());
        });
        let w = World::new(fabric, 0, cfg);
        let mut ep = w.endpoint(0);
        let sent = Arc::new((0..2).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
        let mut drain = |_: &mut Endpoint| {};
        for code in 0..1000u128 {
            send_kmer(&mut ep, 1, code, 1, &sent, &mut drain);
        }
        ep.flush();
        assert_eq!(sent[1].load(Ordering::SeqCst), 1000);
        assert_eq!(sent[0].load(Ordering::SeqCst), 0);
        // The runtime — not the application — did the aggregation.
        let stats = ep.lci_device().unwrap().stats();
        assert_eq!(stats.coalesced_msgs, 1000);
        assert!(stats.coalesce_flushes > 0);
        assert!(
            stats.coalesce_flushes < 1000,
            "frames must carry multiple sub-messages, got {} flushes",
            stats.coalesce_flushes
        );
        // Pump until the receiver finishes: frames its device refused
        // before it posted receives wait in this rank's backlog, and
        // only this rank's progress sends them.
        while !receiver.is_finished() {
            ep.progress();
        }
        receiver.join().unwrap();
    }
}
