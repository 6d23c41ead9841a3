//! The schedule model check: all `n` ranks' plans run against each other
//! under a seeded scheduler that at every point picks any enabled
//! action — grant a peer, open a receive, reduce a direct slice, post a
//! ready send within the window (a put once its grant is in), deliver a
//! posted send (a two-sided one into its posted receive), harvest a
//! delivery whose receive is open — and holds DESIGN.md §4.11's
//! last-dereference table over the run: a send's range is READ from its
//! post until its delivery; a `Land` range or a `Fold` piece's arena slot
//! is WRITE from the moment its peer *posts* the matching send (the bytes
//! can arrive from then on) until its harvest; a `Fold` is a WRITE of its
//! range at its harvest; no WRITE may overlap another live interval of
//! its memory. A direct reduction reads its slice of every rank's buffer
//! and writes it back at one step: only with every peer's grant in, into
//! no rank that has finished, before any of its signals is posted, and
//! by the end every byte of every buffer has been written exactly once.
//! Before the run it checks the pieces statically: every send has
//! exactly one receive, and each put lands on exactly that receive under
//! a grant, no two carrying bytes overlap, grants pair up.

use super::*;
use crate::coll::{ROUND_BITS, SEQ_BITS};
use std::collections::HashMap;

/// `(src, dst, tag)`: what the wire matches a send to its receive by.
type Key = (usize, usize, Tag);

/// A live interval of one rank's memory.
#[derive(Debug)]
struct Touch {
    /// `(rank, side)`: receives land in side 1 and folds in the arena,
    /// side 2; sends read side 0, or 1 when one buffer is both.
    mem: (usize, usize),
    range: (usize, usize),
    write: bool,
    key: Key,
}

/// Starts a touch, which must not overlap a live one unless both read.
fn touch(live: &mut Vec<Touch>, mem: (usize, usize), r: (usize, usize), write: bool, key: Key) {
    let t = Touch { mem, range: (r.0, r.0 + r.1), write, key };
    for o in live.iter().filter(|o| o.mem == mem && (write || o.write)) {
        let apart = t.range.1 <= o.range.0 || o.range.1 <= t.range.0;
        assert!(apart, "{t:?} overlaps live {o:?}");
    }
    live.push(t);
}

fn untouch(live: &mut Vec<Touch>, key: Key, write: bool) {
    let at = live.iter().position(|t| t.key == key && t.write == write).expect("a live touch");
    live.swap_remove(at);
}

/// Where receive `r` of `p` is written: its range, or its arena slot.
fn landing_of(p: &Plan, r: &Recv) -> (usize, (usize, usize)) {
    match r.how {
        How::Fold => (2, (p.slot(r), r.len)),
        _ => (1, (r.off, r.len)),
    }
}

/// The side a grant's rkey names: the landing 1, the arena 2.
const LANDING: Rkey = Rkey(1);
const ARENA: Rkey = Rkey(2);

/// Every put lands on exactly its receive — the address its peer's
/// grant and its `dst_off` or `slot` make, the receive's kind, the
/// receive its signal names — and under a grant; no two puts that carry
/// bytes overlap in a landing or an arena; a rank waits for a grant
/// exactly from the peers that grant it one.
fn check_puts(plans: &[Plan], recv_at: &[Vec<usize>]) {
    let mut dests = Vec::new();
    for (src, p) in plans.iter().enumerate() {
        for (j, s) in p.sends.iter().enumerate() {
            let (dst, i) = (&plans[s.to], recv_at[src][j]);
            let r = &dst.recvs[i];
            assert_eq!(s.how, r.how, "{src}->{}: a piece landed one way and taken another", s.to);
            if !is_put(s.how, s.len, p.eager) {
                continue;
            }
            assert!(dst.peers[src].puts_in > 0, "a put {src}->{} with no grant", s.to);
            let g = Grant::decode(&dst.grant(src, LANDING, ARENA, 0).encode());
            let (rkey, at) = g.target(s.how, s.dst_off, s.slot);
            let (side, (want, _)) = landing_of(dst, r);
            assert_eq!(rkey.0 as usize, side, "put {src}->{} names the other side", s.to);
            assert_eq!(at, want, "put {src}->{} lands at {at}, its receive at {want}", s.to);
            assert_eq!(dst.signalled(src, s.tag), Some(i), "the signal names another receive");
            dests.push((s.to, side, at, at + s.len));
        }
    }
    dests.sort_unstable();
    for w in dests.windows(2) {
        let same = w[0].0 == w[1].0 && w[0].1 == w[1].1;
        assert!(!same || w[0].3 <= w[1].2, "puts {:?} and {:?} overlap", w[0], w[1]);
    }
    for (a, pa) in plans.iter().enumerate() {
        for (b, pb) in plans.iter().enumerate() {
            let (grants, waits) = (pa.peers[b].puts_in > 0, pb.peers[a].puts_out);
            assert_eq!(grants, waits, "{a} grants {b}: {grants}, {b} waits for it: {waits}");
        }
    }
}

/// Every send of `plans` has exactly one receive with its key and
/// length, every receive a send, and the puts pass [`check_puts`]; per
/// send, its receive's index at the destination.
fn matched(plans: &[Plan]) -> Vec<Vec<usize>> {
    let mut recv_of: HashMap<Key, usize> = HashMap::new();
    for (dst, p) in plans.iter().enumerate() {
        for (i, r) in p.recvs.iter().enumerate() {
            assert!(recv_of.insert((r.from, dst, r.tag), i).is_none(), "two receives, one key");
        }
    }
    let mut sends = 0;
    let mut recv_at: Vec<Vec<usize>> = Vec::new();
    for (src, p) in plans.iter().enumerate() {
        let matched = p.sends.iter().map(|s| {
            let i = *recv_of.get(&(src, s.to, s.tag)).expect("a send without a receive");
            assert_eq!(plans[s.to].recvs[i].len, s.len, "send and receive disagree on length");
            i
        });
        recv_at.push(matched.collect());
        sends += p.sends.len();
    }
    assert_eq!(sends, recv_of.len(), "a receive without a send, or two sends with one key");
    check_puts(plans, &recv_at);
    recv_at
}

/// Runs `plans` (rank `r`'s at index `r`) to completion under `seed`.
fn run(plans: &mut [Plan], one_buffer: bool, seed: u64) {
    let n = plans.len();
    let window = 1 + seed as usize % 4;
    let recv_at = matched(plans);
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut posted: Vec<Vec<bool>> = plans.iter().map(|p| vec![false; p.recvs.len()]).collect();
    // `granted[a][b]`: rank `a` holds rank `b`'s grant.
    let mut granted = vec![vec![false; n]; n];
    let mut grants: Vec<(usize, usize)> = (0..n * n)
        .map(|k| (k / n, k % n))
        .filter(|&(a, b)| plans[b].peers[a].puts_in > 0)
        .collect();
    let mut inflight = vec![0usize; n];
    // Sends `(src, j)` posted and not delivered; receives `(dst, i)`
    // delivered and not harvested.
    let mut flying: Vec<(usize, usize)> = Vec::new();
    let mut arrived: Vec<(usize, usize)> = Vec::new();
    let mut live: Vec<Touch> = Vec::new();
    // Per rank: finished; reduced its direct slice. Per rank and byte of
    // its buffer (the direct slices laid end to end): times written.
    let mut finished = vec![false; n];
    let mut reduced = vec![false; n];
    let buf_len = plans.iter().filter_map(|p| p.direct).map(|s| s.len).sum();
    let mut writes = vec![vec![0u32; buf_len]; n];
    let is_put = |p: &Plan, j: usize| is_put(p.sends[j].how, p.sends[j].len, p.eager);
    enum Act {
        Grant(usize),
        Open(usize),
        Reduce(usize),
        Post(usize),
        Deliver(usize),
        Harvest(usize),
    }
    let mut acts = Vec::new();
    loop {
        acts.clear();
        acts.extend((0..grants.len()).map(Act::Grant));
        for r in 0..n {
            acts.extend(plans[r].open_recv().map(|_| Act::Open(r)));
            acts.extend(plans[r].can_reduce().then_some(Act::Reduce(r)));
            let ready = plans[r].ready_send().filter(|&j| {
                let to = plans[r].sends[j].to;
                inflight[r] < window && (!is_put(&plans[r], j) || granted[r][to])
            });
            acts.extend(ready.map(|_| Act::Post(r)));
        }
        for (k, &(src, j)) in flying.iter().enumerate() {
            let landing = posted[plans[src].sends[j].to][recv_at[src][j]];
            acts.extend((is_put(&plans[src], j) || landing).then_some(Act::Deliver(k)));
        }
        for (k, &(dst, i)) in arrived.iter().enumerate() {
            acts.extend(posted[dst][i].then_some(Act::Harvest(k)));
        }
        if acts.is_empty() {
            break;
        }
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        match acts.swap_remove(rng as usize % acts.len()) {
            Act::Grant(k) => {
                let (a, b) = grants.swap_remove(k);
                granted[a][b] = true;
                plans[a].grant_in(b, Grant::default());
            }
            Act::Open(r) => {
                posted[r][plans[r].open_recv().expect("enabled")] = true;
                plans[r].opened += 1;
            }
            Act::Reduce(o) => {
                // Reads slice `o` of every buffer and writes it back into
                // the targets, at one step.
                let s = plans[o].direct.expect("a direct plan");
                for r in 0..n {
                    let why = "buffer before its grant";
                    assert!(r == o || granted[o][r], "rank {o} reads rank {r}'s {why} ({seed})");
                    assert!(!finished[r], "rank {o} touches rank {r}'s buffer after it finished");
                    if s.len > 0 {
                        touch(&mut live, (r, 1), (s.off, s.len), true, (o, r, 0));
                        untouch(&mut live, (o, r, 0), true);
                    }
                    writes[r][s.off..s.off + s.len].iter_mut().for_each(|w| *w += 1);
                }
                (plans[o].reduced, reduced[o]) = (true, true);
            }
            Act::Post(src) => {
                let j = plans[src].ready_send().expect("enabled");
                plans[src].sent += 1;
                inflight[src] += 1;
                let s = plans[src].sends[j];
                if s.how == How::Direct {
                    assert!(reduced[src], "rank {src} signals rank {} before its writes", s.to);
                }
                let key = (src, s.to, s.tag);
                assert!(live.iter().all(|t| t.key != key), "{key:?} is live twice");
                if s.len > 0 {
                    touch(&mut live, (src, usize::from(one_buffer)), (s.off, s.len), false, key);
                    let dst = &plans[s.to];
                    let (side, range) = landing_of(dst, &dst.recvs[recv_at[src][j]]);
                    touch(&mut live, (s.to, side), range, true, key);
                }
                flying.push((src, j));
            }
            Act::Deliver(k) => {
                let (src, j) = flying.swap_remove(k);
                let s = plans[src].sends[j];
                if s.len > 0 {
                    untouch(&mut live, (src, s.to, s.tag), false);
                }
                inflight[src] -= 1;
                arrived.push((s.to, recv_at[src][j]));
            }
            Act::Harvest(k) => {
                let (dst, i) = arrived.swap_remove(k);
                let r = plans[dst].recvs[i];
                let key = (r.from, dst, r.tag);
                if r.len > 0 {
                    untouch(&mut live, key, true);
                }
                if r.how == How::Fold {
                    touch(&mut live, (dst, 1), (r.off, r.len), true, key);
                    untouch(&mut live, key, true);
                }
                plans[dst].harvest(i);
            }
        }
        for r in 0..n {
            if finished[r] || !plans[r].finished() || inflight[r] > 0 {
                continue;
            }
            finished[r] = true;
            if plans[r].direct.is_some() {
                let early = (0..n).find(|&o| !reduced[o]);
                assert!(early.is_none(), "rank {r} finished before rank {early:?}'s signal");
            }
        }
    }
    for (r, p) in plans.iter().enumerate() {
        assert!(p.finished() && inflight[r] == 0, "rank {r} of {n} is stuck (seed {seed})");
    }
    assert!(live.is_empty() && flying.is_empty());
    let want = u32::from(buf_len > 0);
    for (r, bytes) in writes.iter().enumerate() {
        let bad = bytes.iter().position(|&w| w != want);
        assert!(bad.is_none(), "rank {r}'s byte {bad:?} not written {want} time(s) ({seed})");
    }
}

/// Builds every rank's plan; pieces over `eager` are puts.
fn build(n: usize, eager: usize, build: impl Fn(&mut Plan, Shape)) -> Vec<Plan> {
    let mut plans: Vec<Plan> = (0..n).map(|_| Plan::default()).collect();
    for (me, p) in plans.iter_mut().enumerate() {
        build(p, Shape { n, me, chunk: CHUNK, eager });
    }
    plans
}

/// Builds every rank's plan and runs them, with every piece
/// two-sided, every full chunk a put, or every piece a put (by seed).
fn check(n: usize, one_buffer: bool, seed: u64, f: impl Fn(&mut Plan, Shape)) {
    let eager = [usize::MAX, CHUNK - 1, 0][seed as usize % 3];
    run(&mut build(n, eager, f), one_buffer, seed);
}

const ELEM: usize = 8;
const CHUNK: usize = 3 * ELEM;

fn tags(span: usize) -> Tags {
    Tags { seq: 11, span: span.max(1) }
}

/// `n ∈ 2..=9` × 200 seeds × byte lengths of 0, 1, `n−1`, chunk ± 1,
/// 3·chunk + 5 and `n`·(2·chunk + 1) + 1 elements (the last gives
/// every ring block a short last chunk).
fn sweep(f: impl Fn(usize, usize, u64)) {
    for n in 2..=9 {
        for seed in 0..200 {
            for elems in [0, 1, n - 1, 2, 4, 3 * 3 + 5, n * (2 * 3 + 1) + 1] {
                f(n, elems * ELEM, seed);
            }
        }
    }
}

#[test]
fn model_ring() {
    sweep(|n, len, seed| {
        let t = tags(ring_span(Shape { n, me: 0, chunk: CHUNK, eager: 0 }, len, ELEM));
        check(n, true, seed, |p, w| ring(p, w, len, ELEM, t));
    });
}

#[test]
fn model_direct() {
    sweep(|n, len, seed| check(n, true, seed, |p, w| direct(p, w, len, ELEM, tags(1))));
}

#[test]
fn model_bruck() {
    sweep(|n, len, seed| {
        check(n, true, seed, |p, w| allgather(p, w, len, tags((n * len).div_ceil(CHUNK))));
    });
}

/// `exchange_counts`'s plan: `alltoallv` with every block `len` bytes
/// under one sequence number.
fn uniform(p: &mut Plan, w: Shape, len: usize) {
    let sizes = vec![len; w.n];
    alltoallv(p, w, &sizes, &sizes, tags(1));
}

#[test]
fn model_barrier_and_exchanges() {
    sweep(|n, len, seed| {
        check(n, false, seed, |p, w| uniform(p, w, len));
        if len > 0 {
            return;
        }
        check(n, true, seed, |p, w| barrier(p, w, tags(1)));
        // A ragged matrix, about half its pairs empty.
        let mut x = seed | 1;
        let mut count = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 1 & 1) as usize * ((x >> 33) as usize % (3 * CHUNK + 5))
        };
        let m: Vec<Vec<usize>> = (0..n).map(|_| (0..n).map(|_| count()).collect()).collect();
        check(n, false, seed, |p, w| {
            let col: Vec<usize> = m.iter().map(|row| row[w.me]).collect();
            alltoallv(p, w, &m[w.me], &col, tags(V_SPAN))
        });
    });
}

/// The ring at 257 ranks, the first world whose `2(n−1) = 512` rounds
/// pass the 511 piece round codes: its second lap takes the next chunk
/// run of the sequence, so every piece of every pair still has a tag of
/// its own and every put lands on exactly its receive (`matched`), and
/// no piece uses the grants' round code. Blocks of four lanes: a full
/// chunk (a put) and a one-lane eager tail. Up to 256 ranks the run is
/// one lap, the tags the ring always had.
#[test]
fn ring_laps_past_the_round_field() {
    let shape = |n| Shape { n, me: 0, chunk: CHUNK, eager: CHUNK - 1 };
    let (n, len) = (257, 257 * 4 * ELEM);
    assert_eq!(ring_span(shape(256), len, ELEM), 2, "one lap of two chunks at 256 ranks");
    assert_eq!(ring_span(shape(n), len, ELEM), 2 * 2, "two laps of two chunks at 257");
    let t = tags(ring_span(shape(n), len, ELEM));
    let plans = build(n, CHUNK - 1, |p, w| ring(p, w, len, ELEM, t));
    matched(&plans);
    let seq = |tag: Tag| (tag >> ROUND_BITS) & ((1 << SEQ_BITS) - 1);
    let mut laps = [0; 2];
    for p in &plans {
        assert_eq!((p.rounds, p.recvs.len()), (512, 1024), "every round, two pieces each");
        for tag in p.sends.iter().map(|s| s.tag).chain(p.recvs.iter().map(|r| r.tag)) {
            assert_ne!(tag & ROUND_GRANT, ROUND_GRANT, "a piece under the grants' round code");
            laps[usize::from(seq(tag) - t.seq >= 2)] += 1;
        }
    }
    assert_eq!(laps, [257 * 2 * 2 * 511, 257 * 2 * 2], "the pieces of each lap, both ways");
    assert!(plans.iter().any(|p| p.sends.iter().any(|s| s.len > p.eager)), "no put checked");
}

/// `exchange_counts`'s plan sends its 8-byte blocks in the pairwise
/// rotation `(me + r) mod n`, `r = 1..n`, all of them seeds: uniform
/// blocks tie on size, and `alltoallv` breaks ties by `(peer − me − 1)
/// mod n`. Each is one piece, read from the peer's block.
#[test]
fn exchange_counts_sends_in_rotation() {
    for n in [2, 3, 4, 8] {
        for (me, p) in build(n, usize::MAX, |p, w| uniform(p, w, 8)).iter().enumerate() {
            let order: Vec<(Rank, usize, usize)> =
                p.sends.iter().map(|s| (s.to, s.off, s.len)).collect();
            let want: Vec<_> = (1..n).map(|r| (me + r) % n).map(|to| (to, to * 8, 8)).collect();
            assert_eq!((order, p.ready.len()), (want, n - 1), "rank {me} of {n}");
        }
    }
}

/// DESIGN.md §4.11's count table: rank 0 of each schedule at `n` = 2,
/// 4 and 8 over 1 MiB in 64 KiB chunks — the allreduce's buffer, Bruck's
/// output, `alltoallv`'s send buffer in equal blocks — and its rounds,
/// the pieces it sends (grants aside) and their bytes.
#[test]
fn counts_per_rank_match_the_design_table() {
    const MIB: usize = 1 << 20;
    type Row = (&'static str, fn(&mut Plan, Shape), [(u64, usize, usize); 3]);
    let table: [Row; 5] = [
        ("direct", |p, w| direct(p, w, MIB, 8, tags(1)), [(1, 1, 0), (1, 3, 0), (1, 7, 0)]),
        (
            "ring",
            |p, w| ring(p, w, MIB, 8, tags(ring_span(w, MIB, 8))),
            [(2, 16, MIB), (6, 24, 3 * MIB / 2), (14, 28, 7 * MIB / 4)],
        ),
        (
            "bruck",
            |p, w| allgather(p, w, MIB / w.n, tags(w.span(MIB))),
            [(1, 8, MIB / 2), (2, 12, 3 * MIB / 4), (3, 14, 7 * MIB / 8)],
        ),
        ("barrier", |p, w| barrier(p, w, tags(1)), [(1, 1, 1), (2, 2, 2), (3, 3, 3)]),
        (
            "alltoallv",
            |p, w| uniform(p, w, MIB / w.n),
            [(1, 8, MIB / 2), (1, 12, 3 * MIB / 4), (1, 14, 7 * MIB / 8)],
        ),
    ];
    for (name, f, row) in table {
        for (n, want) in [2, 4, 8].into_iter().zip(row) {
            let mut p = Plan::default();
            f(&mut p, Shape { n, me: 0, chunk: 64 << 10, eager: 4096 });
            let bytes = p.sends.iter().map(|s| s.len).sum();
            assert_eq!((p.rounds, p.sends.len(), bytes), want, "{name} at n = {n}");
        }
    }
}

/// Three ranks' ring over three full chunks a block, every chunk a put.
fn ring_puts() -> Vec<Plan> {
    let (n, len) = (3, 3 * 3 * CHUNK);
    let t = tags(ring_span(Shape { n, me: 0, chunk: CHUNK, eager: 0 }, len, ELEM));
    build(n, CHUNK - 1, |p, w| ring(p, w, len, ELEM, t))
}

/// Three ranks' direct allreduce of five elements: slices of two, two
/// and one.
fn direct_plans() -> Vec<Plan> {
    build(3, CHUNK - 1, |p, w| direct(p, w, 5 * ELEM, ELEM, tags(1)))
}

#[test]
fn the_model_runs_the_planted_plans_unplanted() {
    for seed in 0..50 {
        run(&mut ring_puts(), true, seed);
        run(&mut direct_plans(), true, seed);
    }
}

#[test]
fn seal_sizes_the_arena_for_every_fold() {
    for p in &ring_puts() {
        let folds = p.recvs.iter().filter(|r| r.how == How::Fold).map(|r| r.len).sum();
        assert_eq!(p.arena_len, folds, "the arena holds every fold");
    }
    for p in &direct_plans() {
        assert_eq!((p.arena_len, p.sends.len(), p.recvs.len()), (0, 2, 2), "one signal per peer");
    }
}

#[test]
#[should_panic(expected = "lands at")]
fn the_model_catches_an_off_by_one_put() {
    let mut plans = ring_puts();
    let last = plans[0].sends.iter_mut().rev().find(|s| s.how == How::Land).expect("a landing");
    last.dst_off += 1;
    run(&mut plans, true, 1);
}

#[test]
#[should_panic(expected = "with no grant")]
fn the_model_catches_a_missing_grant() {
    let mut plans = ring_puts();
    plans[1].peers[0].puts_in = 0;
    run(&mut plans, true, 1);
}

/// The rule `ready_send` keeps, planted away: a rank that believes it
/// has reduced signals its peers before it has written their buffers.
#[test]
#[should_panic(expected = "before its writes")]
fn the_model_catches_a_signal_before_its_writes() {
    let mut plans = direct_plans();
    plans[1].reduced = true;
    run(&mut plans, true, 1);
}

/// The rule `can_reduce` keeps, planted away: a rank that counts a
/// peer's grant before it arrived reads that peer's buffer too early.
#[test]
#[should_panic(expected = "buffer before its grant")]
fn the_model_catches_a_read_before_its_grant() {
    for seed in 0..50 {
        let mut plans = direct_plans();
        plans[0].peers[1].grant = Some(Grant::default());
        run(&mut plans, true, seed);
    }
}
