//! The schedule model check: all `n` ranks' plans run against each other
//! under a seeded scheduler that at every point picks any enabled
//! action — grant a peer, open a receive, post a ready send within the
//! window (a put once its grant is in), deliver a posted send (a
//! two-sided one into its posted receive), harvest a delivery whose
//! receive is open — and holds DESIGN.md §4.11's last-dereference table
//! over the run: a send's range is READ from its post until its
//! delivery; a `Land` range, a `Fold` piece's arena slot or the range of
//! a `Fold` folded in place is WRITE from the moment its peer *posts*
//! the matching send (the bytes can arrive from then on) until its
//! harvest; a `Fold` through the arena is a WRITE of its range at its
//! harvest; no WRITE may overlap another live interval of its memory.
//! Before the run it checks the puts statically: each lands on exactly
//! its receive under a grant, no two carrying bytes overlap, grants pair
//! up.

use super::*;
use std::collections::HashMap;

/// `(src, dst, tag)`: what the wire matches a send to its receive by.
type Key = (usize, usize, Tag);

/// A live interval of one rank's memory.
#[derive(Debug)]
struct Touch {
    /// `(rank, side)`: receives land in side 1 (a fold in place too) and
    /// other folds in the arena, side 2; sends read side 0, or 1 in
    /// place.
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

/// Where receive `r` of `p` is written: its range (landed, or folded in
/// place by its sender), or its arena slot.
fn landing_of(p: &Plan, r: &Recv) -> (usize, (usize, usize)) {
    match r.how {
        How::Fold if !p.in_place(r) => (2, (p.slot(r), r.len)),
        _ => (1, (r.off, r.len)),
    }
}

/// The side a grant's rkey names: the landing 1, the arena 2.
const LANDING: Rkey = Rkey(1);
const ARENA: Rkey = Rkey(2);

/// Every put lands on exactly its receive — the address its peer's
/// grant and its `dst_off` or `slot` make (the accumulator, for a fold
/// in place), the receive's kind, the receive its signal names — and
/// under a grant; no two puts that carry bytes overlap in a landing or
/// an arena (a fold in place carries none: the run checks the range it
/// writes, as a landing's); a rank waits for a grant exactly from the
/// peers that grant it one.
fn check_puts(plans: &[Plan], recv_at: &[Vec<usize>]) {
    let mut dests = Vec::new();
    for (src, p) in plans.iter().enumerate() {
        for (j, s) in p.sends.iter().enumerate() {
            let (dst, i) = (&plans[s.to], recv_at[src][j]);
            let r = &dst.recvs[i];
            assert_eq!(s.how, r.how, "{src}->{}: a piece landed one way and taken another", s.to);
            if s.len <= p.eager {
                continue;
            }
            assert!(dst.peers[src].puts_in > 0, "a put {src}->{} with no grant", s.to);
            let g = Grant::decode(&dst.grant(src, LANDING, ARENA, 0).encode());
            let (rkey, at) = g.target(s.how, s.dst_off, s.slot);
            let (side, (want, _)) = landing_of(dst, r);
            assert_eq!(rkey.0 as usize, side, "put {src}->{} names the other side", s.to);
            assert_eq!(at, want, "put {src}->{} lands at {at}, its receive at {want}", s.to);
            assert_eq!(dst.signalled(src, s.tag), Some(i), "the signal names another receive");
            if !dst.in_place(r) {
                dests.push((s.to, side, at, at + s.len));
            }
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

/// Runs `plans` (rank `r`'s at index `r`, laid out) to completion under
/// `seed`.
fn run(plans: &mut [Plan], in_place: bool, seed: u64) {
    let n = plans.len();
    let window = 1 + seed as usize % 4;
    // Statically: every send has exactly one receive with its key
    // and length, and every receive a send.
    let mut recv_of: HashMap<Key, usize> = HashMap::new();
    for (dst, p) in plans.iter().enumerate() {
        for (i, r) in p.recvs.iter().enumerate() {
            assert!(recv_of.insert((r.from, dst, r.tag), i).is_none(), "two receives, one key");
        }
    }
    // Per send: its receive's index at the destination.
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
    let is_put = |plans: &[Plan], src: usize, j: usize| plans[src].sends[j].len > plans[src].eager;
    enum Act {
        Grant(usize),
        Open(usize),
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
            let ready = plans[r].ready_send().filter(|&j| {
                let to = plans[r].sends[j].to;
                inflight[r] < window && (!is_put(plans, r, j) || granted[r][to])
            });
            acts.extend(ready.map(|_| Act::Post(r)));
        }
        for (k, &(src, j)) in flying.iter().enumerate() {
            let landing = posted[plans[src].sends[j].to][recv_at[src][j]];
            acts.extend((is_put(plans, src, j) || landing).then_some(Act::Deliver(k)));
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
            }
            Act::Open(r) => {
                posted[r][plans[r].open_recv().expect("enabled")] = true;
                plans[r].opened += 1;
            }
            Act::Post(src) => {
                let j = plans[src].ready_send().expect("enabled");
                plans[src].sent += 1;
                inflight[src] += 1;
                let s = plans[src].sends[j];
                let key = (src, s.to, s.tag);
                assert!(live.iter().all(|t| t.key != key), "{key:?} is live twice");
                touch(&mut live, (src, usize::from(in_place)), (s.off, s.len), false, key);
                let dst = &plans[s.to];
                let (side, range) = landing_of(dst, &dst.recvs[recv_at[src][j]]);
                touch(&mut live, (s.to, side), range, true, key);
                flying.push((src, j));
            }
            Act::Deliver(k) => {
                let (src, j) = flying.swap_remove(k);
                let s = plans[src].sends[j];
                untouch(&mut live, (src, s.to, s.tag), false);
                inflight[src] -= 1;
                arrived.push((s.to, recv_at[src][j]));
            }
            Act::Harvest(k) => {
                let (dst, i) = arrived.swap_remove(k);
                let r = plans[dst].recvs[i];
                let key = (r.from, dst, r.tag);
                untouch(&mut live, key, true);
                if r.how == How::Fold && !plans[dst].in_place(&r) {
                    touch(&mut live, (dst, 1), (r.off, r.len), true, key);
                    untouch(&mut live, key, true);
                }
                plans[dst].harvest(i);
            }
        }
    }
    for (r, p) in plans.iter().enumerate() {
        assert!(p.finished() && inflight[r] == 0, "rank {r} of {n} is stuck (seed {seed})");
    }
    assert!(live.is_empty() && flying.is_empty());
}

/// Builds every rank's plan and lays it out; pieces over `eager` are
/// puts, and a peer may fold in place when the wire is `addressable`.
fn build(n: usize, eager: usize, addressable: bool, build: impl Fn(&mut Plan, Shape)) -> Vec<Plan> {
    let mut plans: Vec<Plan> = (0..n).map(|_| Plan::default()).collect();
    for (me, p) in plans.iter_mut().enumerate() {
        build(p, Shape { n, me, chunk: CHUNK, eager });
        p.lay_out(|_| Ok(addressable)).unwrap();
    }
    plans
}

/// Builds every rank's plan and runs them, with every piece
/// two-sided, every full chunk a put, or every piece a put, on a wire
/// that can or cannot fold in place (by seed).
fn check(n: usize, in_place: bool, seed: u64, f: impl Fn(&mut Plan, Shape)) {
    let eager = [usize::MAX, CHUNK - 1, 0][seed as usize % 3];
    run(&mut build(n, eager, seed.is_multiple_of(2), f), in_place, seed);
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
fn model_trees_and_bruck() {
    sweep(|n, len, seed| {
        let (root, t) = (seed as usize % n, tags(len.div_ceil(CHUNK)));
        check(n, true, seed, |p, w| broadcast(p, w, root, len, t));
        check(n, true, seed, |p, w| reduce(p, w, root, len, t));
        check(n, true, seed, |p, w| allgather(p, w, len, tags((n * len).div_ceil(CHUNK))));
    });
}

#[test]
fn model_barrier_and_exchanges() {
    sweep(|n, len, seed| {
        check(n, false, seed, |p, w| alltoall(p, w, len, tags(len.div_ceil(CHUNK))));
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

/// Three ranks' ring over three full chunks a block, every chunk a put,
/// folded through the arena or in place.
fn ring_puts(addressable: bool) -> Vec<Plan> {
    let (n, len) = (3, 3 * 3 * CHUNK);
    let t = tags(ring_span(Shape { n, me: 0, chunk: CHUNK, eager: 0 }, len, ELEM));
    build(n, CHUNK - 1, addressable, |p, w| ring(p, w, len, ELEM, t))
}

/// Four ranks' reduce to rank 0 over three chunks, every chunk a put:
/// rank 0 has two children (1 and 2), rank 2 one (3).
fn reduce_puts() -> Vec<Plan> {
    let len = 3 * CHUNK;
    build(4, CHUNK - 1, true, |p, w| reduce(p, w, 0, len, tags(3)))
}

#[test]
fn the_model_runs_the_planted_plans_unplanted() {
    for addressable in [false, true] {
        run(&mut ring_puts(addressable), true, 1);
    }
    let plans = reduce_puts();
    assert!(plans[0].peers.iter().all(|p| !p.in_place), "two children folded in place");
    assert!(plans[2].peers[3].in_place, "an only child keeps the arena");
    for seed in 0..50 {
        run(&mut reduce_puts(), true, seed);
    }
}

#[test]
fn seal_folds_the_ring_in_place_and_sizes_the_arena_for_the_rest() {
    let ring = ring_puts(true);
    for p in &ring {
        assert!(p.sends.iter().filter(|s| s.how == How::Fold).all(|s| s.len > p.eager));
        assert_eq!(p.arena_len, 0, "every fold of the ring is in place");
    }
    for p in &ring_puts(false) {
        let folds = p.recvs.iter().filter(|r| r.how == How::Fold).map(|r| r.len).sum();
        assert_eq!(p.arena_len, folds, "no fold in place: the arena holds every fold");
    }
}

/// The rule `seal` keeps, planted away: a `reduce` whose root folds both
/// children's pieces in place lets the second child write the range the
/// first child's fold still owns.
#[test]
#[should_panic(expected = "overlaps live")]
fn the_model_catches_two_children_folding_in_place() {
    for seed in 0..50 {
        let mut plans = reduce_puts();
        for child in [1, 2] {
            plans[0].peers[child].foldable = true;
        }
        plans[0].lay_out(|_| Ok(true)).unwrap();
        run(&mut plans, true, seed);
    }
}

#[test]
#[should_panic(expected = "lands at")]
fn the_model_catches_an_off_by_one_put() {
    let mut plans = ring_puts(true);
    let last = plans[0].sends.iter_mut().rev().find(|s| s.how == How::Land).expect("a landing");
    last.dst_off += 1;
    run(&mut plans, true, 1);
}

#[test]
#[should_panic(expected = "with no grant")]
fn the_model_catches_a_missing_grant() {
    let mut plans = ring_puts(true);
    plans[1].peers[0].puts_in = 0;
    run(&mut plans, true, 1);
}
