//! Property-based tests for the fabric's core data structures.

use lci_fabric::sync::{MpmcArray, SpinLock};
use lci_fabric::types::WirePayload;
use lci_fabric::{DeviceConfig, Fabric, NetContext, RecvBufDesc};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    /// WirePayload round-trips arbitrary byte strings and picks the
    /// inline representation iff they fit.
    #[test]
    fn wire_payload_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let p = WirePayload::from_slice(&data);
        prop_assert_eq!(p.as_slice(), &data[..]);
        prop_assert_eq!(p.len(), data.len());
        match &p {
            WirePayload::None => prop_assert!(data.is_empty()),
            WirePayload::Inline { .. } => prop_assert!((1..=64).contains(&data.len())),
            WirePayload::Heap(_) => prop_assert!(data.len() > 64),
        }
    }

    /// The registration table validates exactly the in-bounds accesses.
    #[test]
    fn registration_bounds(len in 1usize..4096, offset in 0usize..8192, access in 1usize..8192) {
        let fabric = Fabric::new(1);
        let buf = vec![0u8; len];
        let mr = fabric.mem().register(0, buf.as_ptr(), len);
        let ok = fabric.mem().validate(mr.rkey, offset, access).is_ok();
        prop_assert_eq!(ok, offset.checked_add(access).is_some_and(|e| e <= len));
    }

    /// Messages delivered through a device preserve content, immediate
    /// data, and source identity for arbitrary payloads.
    #[test]
    fn device_delivery_integrity(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..1500), 1..16),
        imm_seed in any::<u64>(),
    ) {
        let fabric = Fabric::new(2);
        let d0 = NetContext::new(fabric.clone(), 0).create_device(DeviceConfig::ibv());
        let d1 = NetContext::new(fabric, 1).create_device(DeviceConfig::ofi());

        // Pre-post enough receives on the ofi device.
        let mut bufs: Vec<Vec<u8>> = (0..payloads.len()).map(|_| vec![0u8; 2048]).collect();
        for (i, b) in bufs.iter_mut().enumerate() {
            // SAFETY: buffers outlive the deliveries below.
            let desc = unsafe { RecvBufDesc::new(b.as_mut_ptr(), b.len(), i as u64) };
            d1.post_recv(desc).unwrap();
        }
        for (i, p) in payloads.iter().enumerate() {
            let imm = imm_seed.wrapping_add(i as u64);
            d0.post_send(1, 0, p, imm, 0).unwrap();
        }
        let mut seen = vec![false; payloads.len()];
        let mut cqes = Vec::new();
        while seen.iter().any(|s| !s) {
            cqes.clear();
            d1.poll_cq(&mut cqes, 16).unwrap();
            for c in &cqes {
                if c.kind == lci_fabric::CqeKind::RecvDone {
                    let slot = c.ctx as usize;
                    prop_assert!(!seen[slot]);
                    seen[slot] = true;
                    // Find which payload this was by imm.
                    let idx = (c.imm.wrapping_sub(imm_seed)) as usize;
                    prop_assert_eq!(c.len, payloads[idx].len());
                    prop_assert_eq!(&bufs[slot][..c.len], &payloads[idx][..]);
                    prop_assert_eq!(c.src_rank, 0);
                }
            }
        }
    }

    /// SpinLock under arbitrary interleaved add/sub sequences conserves
    /// the running total.
    #[test]
    fn spinlock_conserves(ops in proptest::collection::vec(-50i64..50, 1..100)) {
        let lock = SpinLock::new(0i64);
        let expected: i64 = ops.iter().sum();
        std::thread::scope(|s| {
            for chunk in ops.chunks(10) {
                let chunk = chunk.to_vec();
                let lock = &lock;
                s.spawn(move || {
                    for v in chunk {
                        *lock.lock() += v;
                    }
                });
            }
        });
        prop_assert_eq!(*lock.lock(), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// MpmcArray is append-only, which is what lets `get` lend: writers
    /// append concurrently through at least three growths while readers
    /// hold `get` references into the first block, re-reading them
    /// throughout, and borrow whatever else has appeared. Every borrowed
    /// value is the one pushed at its index, each append lands exactly
    /// once, and one writer's appends keep their order.
    #[test]
    fn mpmc_array_borrows_survive_growth(
        cap in 1usize..8,
        writers in 2usize..5,
        per_writer in 32usize..160,
    ) {
        let arr: MpmcArray<Arc<u64>> = MpmcArray::with_capacity(cap);
        // `with_capacity` rounds up to 2; fill the first block.
        let first = cap.max(2);
        for i in 0..first {
            arr.push(Arc::new(i as u64));
        }
        let total = first + writers * per_writer;
        prop_assert!(total >= first << 3, "fewer than three growths");
        let value = |w: usize, j: usize| ((w as u64 + 1) << 32) | j as u64;
        let (arr, start) = (&arr, &std::sync::Barrier::new(2 + writers));
        let (pushed, seen) = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let held: Vec<&Arc<u64>> =
                            (0..first).map(|i| arr.get(i).expect("appended before")).collect();
                        start.wait();
                        let mut seen = Vec::new();
                        loop {
                            let n = arr.len();
                            for (i, v) in held.iter().enumerate() {
                                assert_eq!(***v, i as u64, "first-block borrow {i} changed");
                            }
                            if let Some(v) = n.checked_sub(1).and_then(|i| arr.get(i)) {
                                seen.push((n - 1, **v));
                            }
                            if n == total {
                                return seen;
                            }
                            std::thread::yield_now();
                        }
                    })
                })
                .collect();
            let pushed: Vec<Vec<usize>> = (0..writers)
                .map(|w| {
                    s.spawn(move || {
                        start.wait();
                        let push = |j| {
                            // Let the readers in between growths.
                            if j % 8 == 0 {
                                std::thread::yield_now();
                            }
                            arr.push(Arc::new(value(w, j)))
                        };
                        (0..per_writer).map(push).collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect();
            let seen: Vec<_> = readers.into_iter().flat_map(|h| h.join().unwrap()).collect();
            (pushed, seen)
        });
        prop_assert_eq!(arr.len(), total);
        let mut owner = vec![None; total];
        for (w, idxs) in pushed.iter().enumerate() {
            prop_assert!(idxs.windows(2).all(|p| p[0] < p[1]), "writer {} reordered", w);
            for (j, &i) in idxs.iter().enumerate() {
                prop_assert!(i >= first && owner[i].replace(value(w, j)).is_none());
                prop_assert_eq!(arr.get(i).map(|v| **v), Some(value(w, j)));
            }
        }
        for (i, v) in seen {
            let want = if i < first { i as u64 } else { owner[i].expect("appended") };
            prop_assert_eq!(v, want, "borrowed {} at index {}", v, i);
        }
        prop_assert!(arr.get(total).is_none());
    }
}
