//! Per-tenant token-bucket admission control.
//!
//! Each tenant owns a bucket holding up to `burst` tokens that refills at
//! `rate` tokens per second; admitting a request spends one token. A
//! tenant that stays under its rate never sees a denial (the bucket
//! refills faster than it drains), while a flooding tenant is clipped to
//! `rate` requests per second after its initial `burst` — without
//! touching any other tenant's budget. Requests with no tenant bypass the
//! buckets entirely (the queue bound still backpressures them).
//!
//! The bucket map is bounded at [`MAX_TENANTS`]: tenant ids come off the
//! wire, and a client cycling through them must not grow server memory.
//! When a new tenant finds the map full, buckets that have refilled to
//! `burst` go first — that is exactly the bucket a new tenant is given,
//! so forgetting one changes no decision — and only if none has, the
//! least recently seen eighth (an eighth, so the scan that finds them is
//! paid once per `MAX_TENANTS / 8` new tenants, not once each). A tenant
//! that keeps knocking is by construction not among the least recently
//! seen: a flood stays clipped however many other ids are swept past it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Most tenants with a bucket at once.
pub const MAX_TENANTS: usize = 4096;

/// Admission policy: per-tenant token buckets.
#[derive(Debug)]
pub struct Admission {
    /// Tokens per second per tenant; `f64::INFINITY` disables admission
    /// control, `0.0` allows only the initial burst.
    rate: f64,
    /// Bucket capacity (maximum saved-up burst), normalized to ≥ 1 token
    /// so a fresh tenant is never denied its first request.
    burst: f64,
    buckets: Mutex<HashMap<u32, Bucket>>,
    /// Buckets forgotten to keep the map at [`MAX_TENANTS`]
    /// (`fsi_net_admission_evictions_total`). A statistic: `Relaxed`.
    evictions: AtomicU64,
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last: Instant,
}

impl Admission {
    /// A policy admitting `rate` requests/second with bursts up to
    /// `burst` per tenant.
    pub fn new(rate: f64, burst: f64) -> Self {
        Self {
            rate: rate.max(0.0),
            burst: burst.max(1.0),
            buckets: Mutex::new(HashMap::new()),
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether admission control is a no-op under this policy.
    pub fn is_unlimited(&self) -> bool {
        self.rate.is_infinite()
    }

    /// Decides one request observed at `now`. Spends a token on
    /// admission; denial spends nothing.
    pub fn admit(&self, tenant: Option<u32>, now: Instant) -> bool {
        if self.is_unlimited() {
            return true;
        }
        let Some(tenant) = tenant else {
            return true;
        };
        let mut buckets = match self.buckets.lock() {
            Ok(g) => g,
            // audit:allow(hot_path_panic): mutex poisoning means another request already panicked; propagating is correct
            Err(e) => panic!("admission buckets poisoned: {e}"),
        };
        if buckets.len() >= MAX_TENANTS && !buckets.contains_key(&tenant) {
            self.evict(&mut buckets, now);
        }
        let bucket = buckets.entry(tenant).or_insert(Bucket {
            tokens: self.burst,
            last: now,
        });
        bucket.tokens = self.refilled(bucket, now);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// What `bucket` holds once refilled up to `now`.
    fn refilled(&self, bucket: &Bucket, now: Instant) -> f64 {
        // A monotonic clock can still observe reordered `now`s across
        // threads; saturate instead of refilling backwards.
        let elapsed = now.saturating_duration_since(bucket.last).as_secs_f64();
        (bucket.tokens + elapsed * self.rate).min(self.burst)
    }

    /// Makes room in a full map (see the module docs for the order).
    fn evict(&self, buckets: &mut HashMap<u32, Bucket>, now: Instant) {
        let before = buckets.len();
        buckets.retain(|_, bucket| self.refilled(bucket, now) < self.burst);
        if buckets.len() >= MAX_TENANTS {
            let mut seen: Vec<Instant> = buckets.values().map(|bucket| bucket.last).collect();
            let (_, &mut cutoff, _) = seen.select_nth_unstable(MAX_TENANTS / 8);
            // Ties with the cutoff go too: the bound is what must hold.
            buckets.retain(|_, bucket| bucket.last > cutoff);
        }
        let evicted = (before - buckets.len()) as u64;
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Buckets forgotten so far to keep the map bounded.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn infinite_rate_admits_everything() {
        let a = Admission::new(f64::INFINITY, 1.0);
        assert!(a.is_unlimited());
        let now = Instant::now();
        for _ in 0..1000 {
            assert!(a.admit(Some(1), now));
        }
    }

    #[test]
    fn anonymous_requests_bypass_buckets() {
        let a = Admission::new(0.0, 1.0);
        let now = Instant::now();
        for _ in 0..100 {
            assert!(a.admit(None, now));
        }
    }

    #[test]
    fn burst_then_rate_clip() {
        let a = Admission::new(0.0, 3.0);
        let now = Instant::now();
        assert!(a.admit(Some(7), now));
        assert!(a.admit(Some(7), now));
        assert!(a.admit(Some(7), now));
        assert!(!a.admit(Some(7), now), "burst exhausted, zero refill");
        // A different tenant has its own bucket.
        assert!(a.admit(Some(8), now));
    }

    #[test]
    fn tokens_refill_at_the_configured_rate() {
        let a = Admission::new(10.0, 1.0);
        let t0 = Instant::now();
        assert!(a.admit(Some(1), t0), "initial burst");
        assert!(!a.admit(Some(1), t0), "bucket empty");
        // 10 tokens/s → one token back after 100ms (deterministic: the
        // clock is injected, not read).
        let t1 = t0 + Duration::from_millis(100);
        assert!(a.admit(Some(1), t1));
        assert!(!a.admit(Some(1), t1));
        // Refill caps at burst: a long sleep banks only 1 token.
        let t2 = t1 + Duration::from_secs(60);
        assert!(a.admit(Some(1), t2));
        assert!(!a.admit(Some(1), t2));
    }

    #[test]
    fn reordered_clock_observations_do_not_refill() {
        let a = Admission::new(1000.0, 1.0);
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_millis(50);
        assert!(a.admit(Some(1), t1));
        // An earlier timestamp arriving late must not mint tokens.
        assert!(!a.admit(Some(1), t0));
    }

    #[test]
    fn refilled_buckets_are_evicted_before_anyone_mid_burst() {
        // 1 token/s, burst 2: a tenant seen once is whole again a second
        // later, and a whole bucket is what a stranger gets anyway.
        let a = Admission::new(1.0, 2.0);
        let t0 = Instant::now();
        for tenant in 0..MAX_TENANTS as u32 {
            assert!(a.admit(Some(tenant), t0));
        }
        // Tenant 0 drains its bucket just before the map overflows.
        let t1 = t0 + Duration::from_secs(5);
        assert!(a.admit(Some(0), t1));
        assert!(a.admit(Some(0), t1));
        assert!(!a.admit(Some(0), t1));
        assert_eq!(a.evictions(), 0);
        assert!(a.admit(Some(u32::MAX), t1), "a new tenant gets in");
        assert_eq!(a.evictions(), MAX_TENANTS as u64 - 1, "the refilled ones");
        assert_eq!(a.buckets.lock().expect("unpoisoned").len(), 2);
        assert!(!a.admit(Some(0), t1), "the drained bucket was kept");
    }

    /// The fault: a client cycling through a million tenant ids. The map
    /// stays at its cap, and a tenant throttled before the sweep — and
    /// still knocking during it — is throttled all the way through.
    #[test]
    fn tenant_id_sweep_stays_bounded_and_keeps_the_flooder_throttled() {
        const FLOODER: u32 = 7;
        // No refill: nothing ever becomes whole, so every eviction is the
        // least-recently-seen fallback.
        let a = Admission::new(0.0, 2.0);
        let t0 = Instant::now();
        assert!(a.admit(Some(FLOODER), t0));
        assert!(a.admit(Some(FLOODER), t0));
        assert!(!a.admit(Some(FLOODER), t0), "throttled before the sweep");
        for i in 0..1_000_000u32 {
            let now = t0 + Duration::from_micros(u64::from(i) + 1);
            assert!(
                a.admit(Some(1_000 + i), now),
                "a new tenant's first request"
            );
            if i % 1_000 == 0 {
                assert!(!a.admit(Some(FLOODER), now), "unthrottled at sweep {i}");
                let tracked = a.buckets.lock().expect("unpoisoned").len();
                assert!(tracked <= MAX_TENANTS, "{tracked} buckets at sweep {i}");
            }
        }
        let tracked = a.buckets.lock().expect("unpoisoned").len();
        assert!(tracked <= MAX_TENANTS);
        assert_eq!(
            a.evictions() + tracked as u64,
            1_000_001,
            "evicted or tracked"
        );
    }
}
