//! How a thread waits (DESIGN.md §4.8). Every blocking wait in the
//! library sweeps progress until its condition holds, and between idle
//! sweeps it either spins or hands the core away. Which of the two pays
//! depends on where the peer that ends the wait runs: spinning pays when
//! the peer has a core of its own, and wastes every sweep when the peer
//! needs the waiter's core (rank threads sharing one, as in this
//! reproduction). A thread cannot see which case it is in, so it learns
//! it from its own waits.
//!
//! A *streak* is a maximal run of idle sweeps inside a wait: a useful
//! sweep or the end of the wait closes it. A streak spins up to the
//! thread's budget and then yields on every further idle sweep. A streak
//! that closed before its first yield paid, and the budget becomes
//! `min(2·b + 1, 64)`; one that yielded did not, and the budget halves.
//! Every 16th streak spins the full 64 whatever the budget, so a thread
//! that has gained a core of its own relearns spinning. A wait whose
//! progress closure does not say whether it did anything is one streak.

use std::cell::Cell;

/// The most idle sweeps a streak spins before it yields.
const MAX_SPIN: u32 = 64;

/// One streak in this many spins [`MAX_SPIN`] whatever the budget.
const PROBE_EVERY: u8 = 16;

/// The learned rule, a pure value: the spin budget and where the next
/// streak stands in the probe cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SpinBudget {
    /// The learned budget, at most [`MAX_SPIN`].
    learned: u8,
    /// Streaks closed so far, modulo [`PROBE_EVERY`].
    streaks: u8,
}

impl SpinBudget {
    /// A fresh thread spins as long as any thread may.
    const fn new() -> Self {
        Self { learned: MAX_SPIN as u8, streaks: 0 }
    }

    /// Idle sweeps the next streak spins before it yields.
    fn budget(self) -> u32 {
        if self.streaks == PROBE_EVERY - 1 {
            MAX_SPIN
        } else {
            u32::from(self.learned)
        }
    }

    /// Learns from a closed streak: `paid` if it closed before its first
    /// yield.
    fn learn(&mut self, paid: bool) {
        let b = u32::from(self.learned);
        let next = if paid { (2 * b + 1).min(MAX_SPIN) } else { b / 2 };
        self.learned = next as u8;
        self.streaks = (self.streaks + 1) % PROBE_EVERY;
    }
}

thread_local! {
    /// The calling thread's rule: each of its waits teaches the next.
    static RULE: Cell<SpinBudget> = const { Cell::new(SpinBudget::new()) };
}

/// The current streak of one wait.
#[derive(Default)]
pub(crate) struct Streak {
    /// Idle sweeps so far.
    idle: u32,
    /// The spin limit, read from the rule at the streak's first idle
    /// sweep.
    limit: u32,
}

impl Streak {
    /// One idle sweep: spins while inside the limit, then yields the
    /// core on every further one.
    pub(crate) fn idle(&mut self) {
        if RULE.with(|rule| self.step(rule)) {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }

    /// Closes the streak: a useful sweep, or the end of the wait.
    pub(crate) fn end(&mut self) {
        RULE.with(|rule| self.close(rule));
    }

    /// Counts one idle sweep; returns whether it spins.
    fn step(&mut self, rule: &Cell<SpinBudget>) -> bool {
        if self.idle == 0 {
            self.limit = rule.get().budget();
        }
        self.idle = self.idle.saturating_add(1);
        self.idle <= self.limit
    }

    /// Teaches `rule` whether the streak paid. A streak of no idle sweep
    /// teaches nothing.
    fn close(&mut self, rule: &Cell<SpinBudget>) {
        if self.idle > 0 {
            let mut learned = rule.get();
            learned.learn(self.idle <= self.limit);
            rule.set(learned);
            self.idle = 0;
        }
    }
}

/// Calls `progress` until `ready` holds, as one streak: the closure does
/// not say whether it did anything.
pub(crate) fn until(mut ready: impl FnMut() -> bool, mut progress: impl FnMut()) {
    let mut streak = Streak::default();
    while !ready() {
        progress();
        streak.idle();
    }
    streak.end();
}

/// The model check: every value the rule can hold, under every streak.
#[cfg(test)]
mod tests {
    use super::*;

    /// Every value of the rule.
    fn every_rule() -> impl Iterator<Item = SpinBudget> {
        (0..=MAX_SPIN as u8).flat_map(|learned| {
            (0..PROBE_EVERY).map(move |streaks| SpinBudget { learned, streaks })
        })
    }

    /// Runs one streak of `idle` idle sweeps against `rule`, checking
    /// that its spins come first and number the limit at most; returns
    /// how many sweeps spun.
    fn streak(rule: &Cell<SpinBudget>, idle: u32) -> u32 {
        let limit = rule.get().budget();
        assert!(limit <= MAX_SPIN, "{:?} spins {limit}, past {MAX_SPIN}", rule.get());
        let mut s = Streak::default();
        let spun: Vec<bool> = (0..idle).map(|_| s.step(rule)).collect();
        s.close(rule);
        let spins = spun.iter().filter(|&&spin| spin).count() as u32;
        assert_eq!(spins, idle.min(limit), "a streak of {idle} spun {spins}, limit {limit}");
        assert!(spun.iter().skip(spins as usize).all(|&spin| !spin), "spun after a yield");
        assert!(rule.get().learned <= MAX_SPIN as u8, "learned past {MAX_SPIN}");
        spins
    }

    /// A streak that yields whatever the limit, even on a probe.
    const UNPAID: u32 = MAX_SPIN + 1;

    #[test]
    fn a_streak_of_no_idle_sweep_teaches_nothing() {
        for start in every_rule() {
            let rule = Cell::new(start);
            streak(&rule, 0);
            assert_eq!(rule.get(), start);
        }
    }

    #[test]
    fn unpaid_streaks_take_any_budget_to_zero_within_seven() {
        for start in every_rule() {
            let rule = Cell::new(start);
            for _ in 0..7 {
                streak(&rule, UNPAID);
            }
            assert_eq!(rule.get().learned, 0, "from {start:?}");
            // The next streak spins not at all, unless it is a probe.
            let probe = rule.get().budget() == MAX_SPIN;
            assert_eq!(streak(&rule, UNPAID), if probe { MAX_SPIN } else { 0 }, "from {start:?}");
        }
    }

    #[test]
    fn one_paid_streak_raises_the_budget() {
        for start in every_rule() {
            for idle in 1..=start.budget() {
                let rule = Cell::new(start);
                streak(&rule, idle);
                let (before, after) = (start.learned, rule.get().learned);
                assert!(after > before || after == MAX_SPIN as u8, "{start:?}, {idle} sweeps");
            }
        }
        // From nothing: the next probe pays even for one sweep, and the
        // streak after it spins again.
        let rule = Cell::new(SpinBudget { learned: 0, streaks: PROBE_EVERY - 1 });
        assert_eq!(streak(&rule, 1), 1);
        assert!(streak(&rule, UNPAID) >= 1);
    }

    /// Every reachable state, each with the number of streaks closed
    /// since the thread started (modulo [`PROBE_EVERY`], counted here
    /// and not by the rule): the 16th, 32nd, ... streak spins the full
    /// [`MAX_SPIN`] whatever came before.
    #[test]
    fn every_sixteenth_streak_spins_the_full_budget() {
        let mut seen = std::collections::HashSet::new();
        let mut todo = vec![(SpinBudget::new(), 0u8)];
        while let Some((state, closed)) = todo.pop() {
            if !seen.insert((state.learned, state.streaks, closed)) {
                continue;
            }
            let limit = state.budget();
            if (closed + 1) % PROBE_EVERY == 0 {
                assert_eq!(limit, MAX_SPIN, "streak {} from {state:?}", closed + 1);
            }
            // Paid (when the limit lets a streak pay) and unpaid, at the
            // boundary between them.
            for idle in [limit, limit + 1].into_iter().filter(|&i| i > 0) {
                let rule = Cell::new(state);
                streak(&rule, idle);
                todo.push((rule.get(), (closed + 1) % PROBE_EVERY));
            }
        }
        assert!(seen.len() > (MAX_SPIN as usize + 1), "explored only {} states", seen.len());
    }
}
