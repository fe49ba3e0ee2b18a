//! Bounded exponential retry/backoff with seeded jitter.
//!
//! Both connect and send retries run the same schedule: attempt `k` waits
//! `base * 2^k` capped at `cap`, with the upper half of the window jittered
//! by a seeded splitmix64 stream (decorrelates peers that fail together
//! without sacrificing determinism — the whole schedule is a pure function
//! of the seed).  After `max_retries` attempts [`Backoff::next_delay`]
//! returns `None` and the caller must declare the link dead.

/// splitmix64 — the same tiny generator the vendored `rand` stand-in uses;
/// good enough statistical quality for jitter, fully deterministic.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Base window of [`Backoff::send_default`], in nanoseconds: the first
/// retransmit of an unacked frame waits between half of this and all of it.
/// Receivers size their ack delay from it, so a delayed ack can never be
/// what triggers a retransmit.
pub const SEND_RETRY_BASE_NS: u64 = 20_000_000;

/// A deterministic, bounded exponential backoff schedule.
#[derive(Debug, Clone)]
pub struct Backoff {
    base_ns: u64,
    cap_ns: u64,
    max_retries: u32,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// Schedule with explicit bounds.  `seed` fully determines the jitter.
    pub fn new(seed: u64, base_ns: u64, cap_ns: u64, max_retries: u32) -> Self {
        assert!(base_ns > 0, "backoff base must be positive");
        assert!(cap_ns >= base_ns, "backoff cap below base");
        Backoff {
            base_ns,
            cap_ns,
            max_retries,
            attempt: 0,
            rng: seed ^ 0x5851_f42d_4c95_7f2d,
        }
    }

    /// The defaults the node tier uses for send retransmission: 20 ms base,
    /// 200 ms cap, 8 retries (worst-case ≈ 1.5 s before a link is declared
    /// dead — comfortably above any loopback RTT, far below the watchdog).
    pub fn send_default(seed: u64) -> Self {
        Backoff::new(seed, SEND_RETRY_BASE_NS, 200_000_000, 8)
    }

    /// Connect-retry defaults: quicker base, fewer attempts.
    pub fn connect_default(seed: u64) -> Self {
        Backoff::new(seed, 5_000_000, 100_000_000, 6)
    }

    /// Attempts taken so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Whether the retry budget is exhausted.
    pub fn exhausted(&self) -> bool {
        self.attempt >= self.max_retries
    }

    /// Next delay in nanoseconds, or `None` once the budget is spent.
    ///
    /// The delay for attempt `k` is drawn from
    /// `[w/2, w)` where `w = min(cap, base << k)` — "equal jitter", so a
    /// retry never fires instantly but the herd is still spread.
    pub fn next_delay(&mut self) -> Option<u64> {
        if self.attempt >= self.max_retries {
            return None;
        }
        let shift = self.attempt.min(32);
        let window = saturating_shl(self.base_ns, shift).min(self.cap_ns);
        self.attempt += 1;
        let half = window / 2;
        let jitter = splitmix64(&mut self.rng) % half.max(1);
        Some(half + jitter)
    }

    /// Reset after a success so the next failure starts from the base again.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

fn saturating_shl(v: u64, shift: u32) -> u64 {
    if shift >= 64 || v > (u64::MAX >> shift) {
        u64::MAX
    } else {
        v << shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64) -> Vec<u64> {
        let mut b = Backoff::new(seed, 1_000, 64_000, 10);
        std::iter::from_fn(|| b.next_delay()).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(schedule(42), schedule(42));
        assert_eq!(schedule(7), schedule(7));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(schedule(1), schedule(2));
    }

    #[test]
    fn delays_grow_and_cap_and_exhaust() {
        let delays = schedule(9);
        assert_eq!(delays.len(), 10, "budget is exactly max_retries");
        for (k, d) in delays.iter().enumerate() {
            let window = (1_000u64 << k.min(32)).min(64_000);
            assert!(*d >= window / 2 && *d < window, "attempt {k}: {d}");
        }
        let mut b = Backoff::new(9, 1_000, 64_000, 10);
        for _ in 0..10 {
            b.next_delay();
        }
        assert!(b.exhausted());
        assert_eq!(b.next_delay(), None);
    }

    #[test]
    fn reset_restarts_the_window() {
        let mut b = Backoff::new(3, 1_000, 64_000, 4);
        let first = b.next_delay().unwrap();
        b.next_delay().unwrap();
        b.reset();
        let again = b.next_delay().unwrap();
        assert!(
            first < 1_000 && again < 1_000,
            "post-reset delay is base-window"
        );
        assert!(!b.exhausted());
    }
}
