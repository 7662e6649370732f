//! Fault injection and retry middleware for the SP↔TM boundary.
//!
//! In the paper's deployment the QPF is served by a *physically separate*
//! trusted machine, so every Θ evaluation crosses a network/enclave hop that
//! can drop requests, time out, or return garbage. This module provides the
//! two halves needed to engineer — and test — tolerance of that hop:
//!
//! * [`FaultInjector`] wraps any [`SelectionOracle`] and injects a
//!   **deterministic, seeded** schedule of [`OracleError::Transient`] /
//!   [`OracleError::Timeout`] / [`OracleError::Corruption`] failures, with
//!   QPF accounting faithful to each class (a lost *request* costs nothing;
//!   a lost *response* was still a decrypt round-trip).
//! * [`RetryOracle`] wraps any oracle with bounded retries, exponential
//!   backoff with deterministic jitter, and a circuit breaker that converts
//!   repeated failures into fast-fail [`OracleError::Unavailable`] errors
//!   without hammering a down trusted machine.
//!
//! Both middlewares are deterministic given their seeds, which is what lets
//! the `fault_tolerance` proptests assert that a faulty-but-retried run is
//! *byte-identical* (results, splits, final knowledge base) to a fault-free
//! run.

use crate::oracle::{OracleError, SelectionOracle};
use crate::schema::TupleId;
use crate::trapdoor::PredicateKind;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// SplitMix64 finalizer: a cheap, well-mixed hash for deterministic
/// per-call fault/jitter schedules. Public because every seeded-fault
/// harness in the workspace (oracle faults, network chaos, client backoff
/// jitter) derives its schedule from the same mixer, so one seed reproduces
/// one run everywhere.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Which fault class the schedule picked for a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Transient,
    Timeout,
    Corruption,
}

/// Deterministic fault schedule: per-mille rates per evaluation, hashed
/// from `(seed, call index)` so a given seed always faults the same calls.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Schedule seed. Same seed ⇒ same faulted call indices.
    pub seed: u64,
    /// Rate (per 1000 calls) of lost-request faults ([`OracleError::Transient`]).
    pub transient_per_mille: u16,
    /// Rate (per 1000 calls) of lost-response faults ([`OracleError::Timeout`]).
    pub timeout_per_mille: u16,
    /// Rate (per 1000 calls) of integrity faults ([`OracleError::Corruption`]).
    pub corruption_per_mille: u16,
    /// Hard cap on *consecutive* injected faults (0 disables the cap).
    /// With `max_consecutive = c`, any retry loop allowing at least `c + 1`
    /// attempts is guaranteed to eventually see a clean call — this is what
    /// makes "retries recover everything" provable in tests rather than
    /// merely probable.
    pub max_consecutive: u32,
}

impl FaultConfig {
    /// A retryable-only schedule (transient + timeout, no corruption) at
    /// roughly 1-in-12 calls, capped at 2 consecutive faults. Suitable for
    /// equivalence tests: every fault is recoverable within 3 attempts.
    pub fn retryable(seed: u64) -> Self {
        FaultConfig {
            seed,
            transient_per_mille: 50,
            timeout_per_mille: 30,
            corruption_per_mille: 0,
            max_consecutive: 2,
        }
    }

    /// A schedule that also injects non-retryable corruption faults, for
    /// abort-safety tests (a corruption aborts the query mid-flight).
    pub fn with_corruption(seed: u64) -> Self {
        FaultConfig {
            seed,
            transient_per_mille: 30,
            timeout_per_mille: 20,
            corruption_per_mille: 25,
            max_consecutive: 0,
        }
    }

    /// Reads `PRKB_FAULT_SEED` and, when set, builds the standard retryable
    /// schedule with that seed. This is the hook the CI fault-injection job
    /// uses to rerun the tier-1 suite with deterministic faults on.
    pub fn from_env() -> Option<Self> {
        std::env::var("PRKB_FAULT_SEED")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(Self::retryable)
    }
}

/// A deterministic fault-injecting wrapper around any [`SelectionOracle`].
///
/// QPF accounting is faithful to the fault class: a [`Fault::Transient`]
/// fault models a request that never reached the trusted machine (the inner
/// oracle is *not* called — no QPF spent), while timeout and corruption
/// faults model a lost or garbled *response* (the inner oracle *is* called
/// and its QPF use is spent, but the verdict is withheld).
///
/// Batch evaluation deliberately routes through the per-tuple path so the
/// fault schedule advances one call index per evaluation regardless of how
/// callers batch — making schedules reproducible across code paths.
#[derive(Debug)]
pub struct FaultInjector<O> {
    inner: O,
    cfg: FaultConfig,
    calls: AtomicU64,
    consecutive: AtomicU32,
    injected: AtomicU64,
}

impl<O> FaultInjector<O> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: O, cfg: FaultConfig) -> Self {
        FaultInjector {
            inner,
            cfg,
            calls: AtomicU64::new(0),
            consecutive: AtomicU32::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps, returning the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// Total evaluations requested through this injector.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total faults injected.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The fault (if any) scheduled for call index `idx`, before the
    /// consecutive-fault cap is applied.
    fn scheduled(&self, idx: u64) -> Option<Fault> {
        let FaultConfig {
            transient_per_mille: tr,
            timeout_per_mille: to,
            corruption_per_mille: co,
            ..
        } = self.cfg;
        let total = u64::from(tr) + u64::from(to) + u64::from(co);
        if total == 0 {
            return None;
        }
        let r = mix(self.cfg.seed ^ idx.wrapping_mul(0x9e37_79b9)) % 1000;
        if r < u64::from(tr) {
            Some(Fault::Transient)
        } else if r < u64::from(tr) + u64::from(to) {
            Some(Fault::Timeout)
        } else if r < total {
            Some(Fault::Corruption)
        } else {
            None
        }
    }

    /// Draws the next call's fault decision and maintains the
    /// consecutive-fault cap.
    fn next_fault(&self) -> Option<Fault> {
        let idx = self.calls.fetch_add(1, Ordering::Relaxed);
        match self.scheduled(idx) {
            Some(f)
                if self.cfg.max_consecutive == 0
                    || self.consecutive.load(Ordering::Relaxed) < self.cfg.max_consecutive =>
            {
                self.consecutive.fetch_add(1, Ordering::Relaxed);
                self.injected.fetch_add(1, Ordering::Relaxed);
                Some(f)
            }
            _ => {
                self.consecutive.store(0, Ordering::Relaxed);
                None
            }
        }
    }
}

impl<O: SelectionOracle> SelectionOracle for FaultInjector<O> {
    type Pred = O::Pred;

    fn try_eval(&self, pred: &Self::Pred, t: TupleId) -> Result<bool, OracleError> {
        match self.next_fault() {
            None => self.inner.try_eval(pred, t),
            Some(Fault::Transient) => Err(OracleError::Transient(format!(
                "injected: request for tuple {t} lost before the TM"
            ))),
            Some(Fault::Timeout) => {
                // The TM did the work (QPF spent), the response was lost.
                let _ = self.inner.try_eval(pred, t);
                Err(OracleError::Timeout(format!(
                    "injected: response for tuple {t} not observed in time"
                )))
            }
            Some(Fault::Corruption) => {
                // The round-trip happened but the response bytes are garbage.
                let _ = self.inner.try_eval(pred, t);
                Err(OracleError::Corruption(format!(
                    "injected: response for tuple {t} failed its integrity check"
                )))
            }
        }
    }

    // try_eval_batch: default per-tuple loop, intentionally — see type docs.

    fn kind_of(&self, pred: &Self::Pred) -> PredicateKind {
        self.inner.kind_of(pred)
    }

    fn n_slots(&self) -> usize {
        self.inner.n_slots()
    }

    fn is_live(&self, t: TupleId) -> bool {
        self.inner.is_live(t)
    }

    fn qpf_uses(&self) -> u64 {
        self.inner.qpf_uses()
    }
}

/// Retry/backoff/circuit-breaker policy for [`RetryOracle`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per evaluation (first try + retries), minimum 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    /// `Duration::ZERO` disables sleeping entirely (test mode).
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed for the deterministic ±50% backoff jitter.
    pub jitter_seed: u64,
    /// Consecutive *exhausted* evaluations (all attempts failed) before the
    /// breaker opens. 0 disables the breaker.
    pub trip_after: u32,
    /// Number of calls fast-failed with [`OracleError::Unavailable`] while
    /// the breaker is open, before a half-open probe is allowed through.
    pub cooldown_calls: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(80),
            jitter_seed: 0x5eed,
            trip_after: 8,
            cooldown_calls: 16,
        }
    }
}

impl RetryPolicy {
    /// A zero-delay policy for tests: same retry/breaker logic, no sleeping.
    pub fn fast(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            ..RetryPolicy::default()
        }
    }

    /// The sleep before retry number `attempt` (1-based), for the caller's
    /// `n`-th backoff overall: exponential from `base_delay`, capped at
    /// `max_delay`, with deterministic ±50% jitter drawn from
    /// `jitter_seed ^ n` so synchronized retriers decorrelate. Zero when
    /// `base_delay` is zero.
    pub fn backoff_delay(&self, attempt: u32, n: u64) -> Duration {
        if self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        let exp = self.base_delay.saturating_mul(factor);
        let capped = exp.min(self.max_delay).max(self.base_delay);
        let j = mix(self.jitter_seed ^ n) % 1000;
        let nanos = capped.as_nanos() as u64;
        Duration::from_nanos(nanos / 2 + (nanos / 2 / 1000) * j)
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum BreakerState {
    #[default]
    Closed,
    Open,
    HalfOpen,
}

/// Circuit-breaker state machine, driven by a [`RetryPolicy`]: after
/// [`RetryPolicy::trip_after`] consecutive exhausted calls it opens and
/// fast-fails the next [`RetryPolicy::cooldown_calls`] calls, then lets one
/// half-open probe through — success closes it, failure reopens it for
/// another cooldown. `trip_after = 0` disables it.
#[derive(Debug, Clone, Default)]
pub struct Breaker {
    state: BreakerState,
    consecutive_exhausted: u32,
    open_calls_left: u32,
}

impl Breaker {
    /// A closed breaker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gate at the top of every call. While open it fast-fails with the
    /// consecutive-exhausted count; once the cooldown is spent it lets the
    /// call through as the half-open probe.
    ///
    /// # Errors
    /// The consecutive exhausted calls so far, when the call must
    /// fast-fail.
    pub fn gate(&mut self, policy: &RetryPolicy) -> Result<(), u32> {
        if policy.trip_after == 0 || self.state != BreakerState::Open {
            return Ok(());
        }
        if self.open_calls_left > 0 {
            self.open_calls_left -= 1;
            return Err(self.consecutive_exhausted);
        }
        self.state = BreakerState::HalfOpen; // cooldown spent: probe
        Ok(())
    }

    /// Records a call outcome; returns whether this outcome opened the
    /// breaker.
    pub fn record(&mut self, policy: &RetryPolicy, ok: bool) -> bool {
        if policy.trip_after == 0 {
            return false;
        }
        if ok {
            self.consecutive_exhausted = 0;
            self.state = BreakerState::Closed;
            return false;
        }
        self.consecutive_exhausted = self.consecutive_exhausted.saturating_add(1);
        let probing = self.state == BreakerState::HalfOpen;
        if probing || self.consecutive_exhausted >= policy.trip_after {
            self.state = BreakerState::Open;
            self.open_calls_left = policy.cooldown_calls;
            return true;
        }
        false
    }

    /// Whether the breaker is currently open (fast-failing).
    pub fn is_open(&self) -> bool {
        self.state == BreakerState::Open
    }
}

/// A fault-tolerant wrapper around any [`SelectionOracle`].
///
/// Each evaluation gets up to [`RetryPolicy::max_attempts`] tries; only
/// [retryable](OracleError::is_retryable) errors (transient, timeout) are
/// retried, with exponential backoff and deterministic jitter between
/// attempts. Retried evaluations that reach the trusted machine are *real
/// QPF cost* — the counter keeps every spent round-trip, so fault-path cost
/// is visible in the paper's metric, not hidden.
///
/// When [`RetryPolicy::trip_after`] consecutive evaluations exhaust their
/// attempts, the [`Breaker`] opens: the next
/// [`RetryPolicy::cooldown_calls`] evaluations fast-fail with
/// [`OracleError::Unavailable`] without touching the inner oracle, then one
/// half-open probe is allowed through — success closes the breaker, failure
/// reopens it for another cooldown.
///
/// Batches route through the per-tuple path so each tuple gets its own
/// retry budget (one poisoned tuple cannot consume the whole batch's
/// attempts).
#[derive(Debug)]
pub struct RetryOracle<O> {
    inner: O,
    policy: RetryPolicy,
    breaker: Mutex<Breaker>,
    retries: AtomicU64,
    trips: AtomicU64,
    fast_fails: AtomicU64,
    backoffs: AtomicU64,
}

impl<O> RetryOracle<O> {
    /// Wraps `inner` with the given policy.
    pub fn new(inner: O, policy: RetryPolicy) -> Self {
        RetryOracle {
            inner,
            policy,
            breaker: Mutex::new(Breaker::new()),
            retries: AtomicU64::new(0),
            trips: AtomicU64::new(0),
            fast_fails: AtomicU64::new(0),
            backoffs: AtomicU64::new(0),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps, returning the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// Total retry attempts performed (beyond first attempts).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Times the circuit breaker opened.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Calls fast-failed while the breaker was open.
    pub fn fast_fails(&self) -> u64 {
        self.fast_fails.load(Ordering::Relaxed)
    }

    /// Whether the breaker is currently open (fast-failing).
    pub fn is_open(&self) -> bool {
        self.breaker().is_open()
    }

    fn breaker(&self) -> MutexGuard<'_, Breaker> {
        // The breaker holds plain counters: a panic elsewhere cannot leave
        // them inconsistent, so a poisoned lock is still usable.
        match self.breaker.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Gate at the top of every evaluation: fast-fail while open, let a
    /// half-open probe through once the cooldown is spent.
    fn gate(&self) -> Result<(), OracleError> {
        // A disabled breaker needs no lock.
        if self.policy.trip_after == 0 {
            return Ok(());
        }
        self.breaker().gate(&self.policy).map_err(|failures| {
            self.fast_fails.fetch_add(1, Ordering::Relaxed);
            OracleError::Unavailable { failures }
        })
    }

    /// Records an evaluation outcome into the breaker state machine.
    fn record(&self, ok: bool) {
        if self.policy.trip_after != 0 && self.breaker().record(&self.policy, ok) {
            self.trips.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sleeps the policy's jittered backoff for retry number `attempt`.
    fn backoff(&self, attempt: u32) {
        let n = self.backoffs.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(self.policy.backoff_delay(attempt, n));
    }
}

impl<O: SelectionOracle> SelectionOracle for RetryOracle<O> {
    type Pred = O::Pred;

    fn try_eval(&self, pred: &Self::Pred, t: TupleId) -> Result<bool, OracleError> {
        self.gate()?;
        let attempts = self.policy.max_attempts.max(1);
        let mut attempt = 1u32;
        loop {
            match self.inner.try_eval(pred, t) {
                Ok(v) => {
                    self.record(true);
                    return Ok(v);
                }
                Err(e) if e.is_retryable() && attempt < attempts => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.backoff(attempt);
                    attempt += 1;
                }
                Err(e) => {
                    self.record(false);
                    return Err(e);
                }
            }
        }
    }

    // try_eval_batch: default per-tuple loop, intentionally — see type docs.

    fn kind_of(&self, pred: &Self::Pred) -> PredicateKind {
        self.inner.kind_of(pred)
    }

    fn n_slots(&self) -> usize {
        self.inner.n_slots()
    }

    fn is_live(&self, t: TupleId) -> bool {
        self.inner.is_live(t)
    }

    fn qpf_uses(&self) -> u64 {
        self.inner.qpf_uses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{ComparisonOp, Predicate};
    use crate::testing::PlainOracle;

    fn oracle() -> PlainOracle {
        PlainOracle::single_column((0..100).collect())
    }

    fn pred() -> Predicate {
        Predicate::cmp(0, ComparisonOp::Lt, 50)
    }

    #[test]
    fn injector_is_deterministic_and_classifies() {
        let cfg = FaultConfig::with_corruption(42);
        let a = FaultInjector::new(oracle(), cfg);
        let b = FaultInjector::new(oracle(), cfg);
        let p = pred();
        let run = |o: &FaultInjector<PlainOracle>| {
            (0..500u32)
                .map(|t| match o.try_eval(&p, t % 100) {
                    Ok(v) => (0u8, v),
                    Err(OracleError::Transient(_)) => (1, false),
                    Err(OracleError::Timeout(_)) => (2, false),
                    Err(OracleError::Corruption(_)) => (3, false),
                    Err(e) => panic!("unexpected class: {e}"),
                })
                .collect::<Vec<_>>()
        };
        let ra = run(&a);
        assert_eq!(ra, run(&b), "same seed ⇒ same schedule");
        assert!(a.injected() > 0, "rates are nonzero, 500 calls must fault");
        assert!(ra.iter().any(|&(c, _)| c == 1), "transient seen");
        assert!(ra.iter().any(|&(c, _)| c == 2), "timeout seen");
        assert!(ra.iter().any(|&(c, _)| c == 3), "corruption seen");
    }

    #[test]
    fn injector_qpf_accounting_matches_fault_class() {
        // Transient = lost request (no QPF); timeout/corruption = lost
        // response (QPF spent).
        let inj = FaultInjector::new(oracle(), FaultConfig::with_corruption(7));
        let p = pred();
        let mut lost_requests = 0u64;
        let n = 400u64;
        for t in 0..n {
            if let Err(OracleError::Transient(_)) = inj.try_eval(&p, (t % 100) as u32) {
                lost_requests += 1;
            }
        }
        assert!(lost_requests > 0, "schedule must include transient faults");
        assert_eq!(
            inj.qpf_uses(),
            n - lost_requests,
            "every call except lost requests reached the TM and was counted"
        );
    }

    #[test]
    fn consecutive_fault_cap_bounds_retry_depth() {
        let cfg = FaultConfig {
            max_consecutive: 2,
            ..FaultConfig::retryable(3)
        };
        let inj = FaultInjector::new(oracle(), cfg);
        let p = pred();
        let mut consecutive = 0u32;
        for t in 0..2000u32 {
            if inj.try_eval(&p, t % 100).is_err() {
                consecutive += 1;
                assert!(
                    consecutive <= 2,
                    "cap must force a clean call after 2 faults"
                );
            } else {
                consecutive = 0;
            }
        }
    }

    #[test]
    fn retries_recover_all_retryable_faults_and_count_qpf() {
        // Satellite: every retried eval still increments qpf_uses — retries
        // are real paper-cost, not free.
        let inj = FaultInjector::new(oracle(), FaultConfig::retryable(11));
        let retry = RetryOracle::new(inj, RetryPolicy::fast(4));
        let p = pred();
        let n = 1000u64;
        for t in 0..n {
            let v = retry
                .try_eval(&p, (t % 100) as u32)
                .expect("retryable faults must recover");
            assert_eq!(v, (t % 100) < 50);
        }
        assert!(retry.retries() > 0, "the schedule must have forced retries");
        // Timeout faults spend a QPF use and then the retry spends another:
        // total uses strictly exceed n whenever a timeout was retried, and
        // equal n + (timeout-faulted calls that reached the TM).
        let inj = retry.inner();
        assert_eq!(
            retry.qpf_uses(),
            inj.calls() - lost_request_count(inj),
            "uses = calls that reached the TM (timeouts included, lost requests excluded)"
        );
        assert!(
            retry.qpf_uses() >= n,
            "successful verdicts alone account for n uses; retried timeouts add more"
        );
    }

    /// Replays the injector's schedule to count lost-request (transient)
    /// faults among the calls it has served so far.
    fn lost_request_count(inj: &FaultInjector<PlainOracle>) -> u64 {
        // Re-derive from the schedule: walk indices 0..calls() applying the
        // same consecutive-cap state machine the injector used.
        let probe = FaultInjector::new(PlainOracle::single_column(vec![]), inj.cfg);
        let mut lost = 0u64;
        for _ in 0..inj.calls() {
            if let Some(Fault::Transient) = probe.next_fault() {
                lost += 1;
            }
        }
        lost
    }

    #[test]
    fn non_retryable_errors_fail_immediately() {
        let inj = FaultInjector::new(
            oracle(),
            FaultConfig {
                seed: 1,
                transient_per_mille: 0,
                timeout_per_mille: 0,
                corruption_per_mille: 1000,
                max_consecutive: 0,
            },
        );
        let retry = RetryOracle::new(inj, RetryPolicy::fast(5));
        let err = retry.try_eval(&pred(), 0).unwrap_err();
        assert!(matches!(err, OracleError::Corruption(_)));
        assert_eq!(retry.retries(), 0, "corruption must not be retried");
    }

    #[test]
    fn breaker_opens_fast_fails_and_recovers() {
        // An always-failing inner oracle (100% transient, no cap).
        let always_down = FaultConfig {
            seed: 5,
            transient_per_mille: 1000,
            timeout_per_mille: 0,
            corruption_per_mille: 0,
            max_consecutive: 0,
        };
        let policy = RetryPolicy {
            trip_after: 3,
            cooldown_calls: 4,
            ..RetryPolicy::fast(2)
        };
        let retry = RetryOracle::new(FaultInjector::new(oracle(), always_down), policy);
        let p = pred();
        // 3 exhausted evaluations trip the breaker…
        for _ in 0..3 {
            assert!(matches!(
                retry.try_eval(&p, 0),
                Err(OracleError::Transient(_))
            ));
        }
        assert!(retry.is_open());
        assert_eq!(retry.trips(), 1);
        let calls_at_trip = retry.inner().calls();
        // …then the cooldown fast-fails without touching the inner oracle…
        for _ in 0..4 {
            assert!(matches!(
                retry.try_eval(&p, 0),
                Err(OracleError::Unavailable { .. })
            ));
        }
        assert_eq!(retry.fast_fails(), 4);
        assert_eq!(
            retry.inner().calls(),
            calls_at_trip,
            "open breaker never reaches the TM"
        );
        // …the half-open probe fails (oracle still down) and reopens…
        assert!(matches!(
            retry.try_eval(&p, 0),
            Err(OracleError::Transient(_))
        ));
        assert_eq!(retry.trips(), 2);
        assert!(retry.is_open());
    }

    #[test]
    fn breaker_closes_on_successful_probe() {
        // Inner oracle that recovers: we flip the schedule off by using an
        // injector with zero rates after tripping via a downed one is not
        // possible with one wrapper, so drive the breaker directly with a
        // clean oracle after a manufactured trip.
        let clean = oracle();
        let policy = RetryPolicy {
            trip_after: 1,
            cooldown_calls: 2,
            ..RetryPolicy::fast(1)
        };
        let retry = RetryOracle::new(
            FaultInjector::new(
                clean,
                FaultConfig {
                    seed: 9,
                    transient_per_mille: 0,
                    timeout_per_mille: 0,
                    corruption_per_mille: 0,
                    max_consecutive: 0,
                },
            ),
            policy,
        );
        let p = pred();
        // Trip via a fatal error (out-of-range tuple exhausts its single
        // attempt immediately).
        assert!(retry.try_eval(&p, 10_000).is_err());
        assert!(retry.is_open());
        for _ in 0..2 {
            assert!(matches!(
                retry.try_eval(&p, 0),
                Err(OracleError::Unavailable { .. })
            ));
        }
        // Half-open probe succeeds and closes the breaker.
        assert_eq!(retry.try_eval(&p, 0), Ok(true));
        assert!(!retry.is_open());
        assert_eq!(retry.try_eval(&p, 60), Ok(false));
    }

    #[test]
    fn from_env_config_shape() {
        // Not testing the env var itself (process-global); just the parser's
        // output shape for a representative seed.
        let cfg = FaultConfig::retryable(99);
        assert_eq!(cfg.seed, 99);
        assert!(
            cfg.max_consecutive > 0,
            "retryable schedules must be bounded"
        );
        assert_eq!(cfg.corruption_per_mille, 0);
    }
}
