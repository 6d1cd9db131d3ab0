//! # brook-inject — seeded, deterministic fault injection
//!
//! The paper's certification argument (§2 rules d/e) is about *fault
//! response*: a GPU task failing must neither crash the system nor
//! corrupt other tasks. The rest of the stack can only demonstrate that
//! claim if faults actually happen — reproducibly, at precise points,
//! on every backend. This crate is that source of faults:
//!
//! * a [`FaultPlan`] schedules faults at precise launch indices —
//!   device loss (transient or persistent), transient result
//!   corruption of one output block, injected worker panics, latency
//!   spikes and hangs;
//! * a [`FaultInjector`] executes the plan deterministically: each
//!   scheduled fault fires exactly once, on the first attempt that
//!   reaches its launch index, and every firing is logged as an
//!   [`InjectedFault`] so recovery can be *attributed* to its cause;
//! * [`CancelToken`] + [`cancellable_sleep`] make every injected delay
//!   interruptible, so a watchdog can always unwedge a hung dispatch —
//!   injected hangs are cooperative by construction, mirroring a
//!   device-reset path on real hardware. The one exception is a
//!   *stall*: non-preemptible work that overruns and ignores
//!   cancellation, for testing what a watchdog does when it cannot
//!   unwedge anything;
//! * the per-launch [`LaunchResilience`] record and the aggregated
//!   [`ResilienceSummary`] are the evidence schema recovery ladders
//!   report through (`ComplianceReport` surfaces the summary).
//!
//! The crate is dependency-free and knows nothing about Brook IR or
//! backends; the runtime threads an injector behind its dispatch hook.
//! Determinism contract: the same plan against the same launch sequence
//! injects the same faults in the same order — randomness exists only
//! inside [`FaultPlan::random`], which is a pure function of its seed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One kind of injectable fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Dispatch fails with a device-loss error. A transient loss fails
    /// exactly one attempt; a `persistent` loss latches until the
    /// runtime fails over to another backend.
    DeviceLoss {
        /// Latch the loss for every subsequent attempt (until failover).
        persistent: bool,
    },
    /// After an otherwise successful dispatch, flip `xor_bits` in every
    /// element of one block of one output stream — the transient
    /// bit-flip redundant execution must catch. `block` indexes
    /// lane-engine-sized element blocks (the runtime maps it to an
    /// element span, clamped into the output domain).
    CorruptOutput {
        /// Output position within the launch's output list (clamped).
        output: usize,
        /// Block index within that output (clamped into the domain).
        block: usize,
        /// Bits XORed into each affected element (0 is promoted to a
        /// sign-bit flip so the fault is never a silent no-op).
        xor_bits: u32,
    },
    /// Panic inside dispatch — a worker bug the shields must contain.
    Panic,
    /// Sleep before dispatch (cancellable): a latency spike.
    Latency {
        /// Injected delay.
        millis: u64,
    },
    /// Sleep until a watchdog cancels the attempt: a wedged device.
    Hang,
    /// Sleep before dispatch *ignoring* cancellation: non-preemptible
    /// work that overruns any deadline by up to `millis`.
    Stall {
        /// Injected delay.
        millis: u64,
    },
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::DeviceLoss { persistent: true } => write!(f, "device-loss(persistent)"),
            FaultKind::DeviceLoss { persistent: false } => write!(f, "device-loss(transient)"),
            FaultKind::CorruptOutput {
                output,
                block,
                xor_bits,
            } => {
                write!(f, "corrupt(out {output}, block {block}, xor {xor_bits:#x})")
            }
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::Latency { millis } => write!(f, "latency({millis}ms)"),
            FaultKind::Hang => write!(f, "hang"),
            FaultKind::Stall { millis } => write!(f, "stall({millis}ms)"),
        }
    }
}

/// A fault scheduled at a precise launch index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Zero-based logical launch index (retries of a launch keep its
    /// index — a fault fires once, not once per attempt).
    pub launch: u64,
    /// What happens there.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults. Build one with the `with_*`
/// builders for precise campaigns, or [`FaultPlan::random`] for seeded
/// fuzzing — either way the plan is pure data: no clocks, no RNG state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The seed the plan was derived from (0 for hand-built plans);
    /// carried for reproduction bundles.
    pub seed: u64,
    /// The schedule, in no particular order (the injector matches on
    /// launch index).
    pub faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; useful to measure the cost of an
    /// armed-but-idle hook).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules a device loss at `launch`.
    #[must_use]
    pub fn with_device_loss(mut self, launch: u64, persistent: bool) -> Self {
        self.faults.push(ScheduledFault {
            launch,
            kind: FaultKind::DeviceLoss { persistent },
        });
        self
    }

    /// Schedules a transient output corruption at `launch`.
    #[must_use]
    pub fn with_corruption(mut self, launch: u64, output: usize, block: usize, xor_bits: u32) -> Self {
        self.faults.push(ScheduledFault {
            launch,
            kind: FaultKind::CorruptOutput {
                output,
                block,
                xor_bits,
            },
        });
        self
    }

    /// Schedules an injected worker panic at `launch`.
    #[must_use]
    pub fn with_panic(mut self, launch: u64) -> Self {
        self.faults.push(ScheduledFault {
            launch,
            kind: FaultKind::Panic,
        });
        self
    }

    /// Schedules a latency spike at `launch`.
    #[must_use]
    pub fn with_latency(mut self, launch: u64, millis: u64) -> Self {
        self.faults.push(ScheduledFault {
            launch,
            kind: FaultKind::Latency { millis },
        });
        self
    }

    /// Schedules a hang (sleep-until-cancelled) at `launch`.
    #[must_use]
    pub fn with_hang(mut self, launch: u64) -> Self {
        self.faults.push(ScheduledFault {
            launch,
            kind: FaultKind::Hang,
        });
        self
    }

    /// Schedules a stall (an uncancellable sleep) at `launch`.
    #[must_use]
    pub fn with_stall(mut self, launch: u64, millis: u64) -> Self {
        self.faults.push(ScheduledFault {
            launch,
            kind: FaultKind::Stall { millis },
        });
        self
    }

    /// A seeded random plan over `launches` logical launches: a pure
    /// function of its arguments (same seed → same plan, byte for
    /// byte). `mix` bounds how nasty the plan gets; the fuzz campaigns
    /// tune it per backend (e.g. no persistent loss on device backends
    /// whose differential baseline is the same device).
    pub fn random(seed: u64, launches: u64, mix: &FaultMix) -> Self {
        let mut state = seed ^ 0x6a09_e667_f3bc_c908;
        let mut faults = Vec::new();
        let mut budget = |count: u32| -> u64 {
            // Deterministic count in 0..=count.
            if count == 0 || launches == 0 {
                0
            } else {
                splitmix64(&mut state) % u64::from(count + 1)
            }
        };
        let n_loss = budget(mix.max_device_losses);
        let n_corrupt = budget(mix.max_corruptions);
        let n_panic = budget(mix.max_panics);
        let n_latency = budget(mix.max_latency_spikes);
        let n_hang = budget(mix.max_hangs);
        for _ in 0..n_loss {
            let launch = splitmix64(&mut state) % launches;
            let persistent = mix.allow_persistent_loss && splitmix64(&mut state).is_multiple_of(4);
            faults.push(ScheduledFault {
                launch,
                kind: FaultKind::DeviceLoss { persistent },
            });
        }
        for _ in 0..n_corrupt {
            faults.push(ScheduledFault {
                launch: splitmix64(&mut state) % launches,
                kind: FaultKind::CorruptOutput {
                    output: (splitmix64(&mut state) % 2) as usize,
                    block: (splitmix64(&mut state) % 64) as usize,
                    xor_bits: (splitmix64(&mut state) as u32) | 0x0080_0000,
                },
            });
        }
        for _ in 0..n_panic {
            faults.push(ScheduledFault {
                launch: splitmix64(&mut state) % launches,
                kind: FaultKind::Panic,
            });
        }
        for _ in 0..n_latency {
            faults.push(ScheduledFault {
                launch: splitmix64(&mut state) % launches,
                kind: FaultKind::Latency {
                    millis: 1 + splitmix64(&mut state) % mix.max_latency_ms.max(1),
                },
            });
        }
        for _ in 0..n_hang {
            faults.push(ScheduledFault {
                launch: splitmix64(&mut state) % launches,
                kind: FaultKind::Hang,
            });
        }
        FaultPlan { seed, faults }
    }
}

/// Bounds for [`FaultPlan::random`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultMix {
    /// Upper bound on scheduled device losses.
    pub max_device_losses: u32,
    /// Whether a loss may be persistent (forcing failover).
    pub allow_persistent_loss: bool,
    /// Upper bound on scheduled output corruptions.
    pub max_corruptions: u32,
    /// Upper bound on scheduled panics.
    pub max_panics: u32,
    /// Upper bound on scheduled latency spikes.
    pub max_latency_spikes: u32,
    /// Upper bound on a single latency spike in milliseconds.
    pub max_latency_ms: u64,
    /// Upper bound on scheduled hangs.
    pub max_hangs: u32,
}

impl Default for FaultMix {
    fn default() -> Self {
        FaultMix {
            max_device_losses: 2,
            allow_persistent_loss: true,
            max_corruptions: 2,
            max_panics: 1,
            max_latency_spikes: 2,
            max_latency_ms: 3,
            max_hangs: 1,
        }
    }
}

/// A fault the injector actually fired, tagged with its launch index —
/// the unit of attribution in a [`LaunchResilience`] record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Logical launch index the fault fired at.
    pub launch: u64,
    /// The fault.
    pub kind: FaultKind,
}

/// What the injector decided for one dispatch attempt. The runtime
/// keeps asking until it gets [`PreDispatch::Proceed`]; every other
/// answer consumes exactly one scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreDispatch {
    /// No (more) pre-dispatch faults here; run the kernel.
    Proceed,
    /// The device is (or just became) lost — fail this attempt with a
    /// device error.
    DeviceLost {
        /// The loss latches until failover.
        persistent: bool,
    },
    /// Panic now (inside the caller's unwind shield).
    Panic,
    /// Sleep this long (cancellably), then ask again.
    Latency {
        /// Injected delay.
        millis: u64,
    },
    /// Sleep until the watchdog cancels the attempt, then fail it.
    Hang,
    /// Sleep this long without polling cancellation, then ask again.
    Stall {
        /// Injected delay.
        millis: u64,
    },
}

/// Executes a [`FaultPlan`] deterministically. One injector belongs to
/// one context; the runtime consults it at every dispatch.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    fired: Vec<bool>,
    /// Latched persistent device loss (until [`mark_failed_over`]).
    ///
    /// [`mark_failed_over`]: FaultInjector::mark_failed_over
    device_lost: bool,
    failed_over: bool,
    log: Vec<InjectedFault>,
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let n = plan.faults.len();
        FaultInjector {
            plan,
            fired: vec![false; n],
            device_lost: false,
            failed_over: false,
            log: Vec::new(),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether a persistent device loss is currently latched.
    pub fn device_lost(&self) -> bool {
        self.device_lost
    }

    /// Tells the injector the runtime failed over to a replacement
    /// backend: the lost device is out of the picture, so the loss
    /// latch clears and no further device-loss faults fire (the plan
    /// targeted the device that is gone). Every other fault kind keeps
    /// firing — recovery must hold on the failover backend too.
    pub fn mark_failed_over(&mut self) {
        self.device_lost = false;
        self.failed_over = true;
    }

    /// Every fault fired so far, in firing order.
    pub fn injected(&self) -> &[InjectedFault] {
        &self.log
    }

    fn fire(&mut self, idx: usize, launch: u64) -> FaultKind {
        self.fired[idx] = true;
        let kind = self.plan.faults[idx].kind.clone();
        self.log.push(InjectedFault {
            launch,
            kind: kind.clone(),
        });
        kind
    }

    /// The next pre-dispatch fault for `launch`, consuming it. Call in
    /// a loop until [`PreDispatch::Proceed`]. A latched persistent loss
    /// answers [`PreDispatch::DeviceLost`] without consuming anything.
    pub fn pre_dispatch(&mut self, launch: u64) -> PreDispatch {
        if self.device_lost {
            return PreDispatch::DeviceLost { persistent: true };
        }
        let next = (0..self.plan.faults.len()).find(|i| {
            let f = &self.plan.faults[*i];
            let suppressed = matches!(f.kind, FaultKind::CorruptOutput { .. })
                || (self.failed_over && matches!(f.kind, FaultKind::DeviceLoss { .. }));
            !self.fired[*i] && f.launch == launch && !suppressed
        });
        let Some(idx) = next else {
            return PreDispatch::Proceed;
        };
        match self.fire(idx, launch) {
            FaultKind::DeviceLoss { persistent } => {
                if persistent {
                    self.device_lost = true;
                }
                PreDispatch::DeviceLost { persistent }
            }
            FaultKind::Panic => PreDispatch::Panic,
            FaultKind::Latency { millis } => PreDispatch::Latency { millis },
            FaultKind::Hang => PreDispatch::Hang,
            FaultKind::Stall { millis } => PreDispatch::Stall { millis },
            FaultKind::CorruptOutput { .. } => unreachable!("filtered above"),
        }
    }

    /// The next post-dispatch corruption for `launch`, consuming it.
    /// Returns `(output, block, xor_bits)` with `xor_bits` guaranteed
    /// nonzero.
    pub fn corruption(&mut self, launch: u64) -> Option<(usize, usize, u32)> {
        let idx = (0..self.plan.faults.len()).find(|i| {
            !self.fired[*i]
                && self.plan.faults[*i].launch == launch
                && matches!(self.plan.faults[*i].kind, FaultKind::CorruptOutput { .. })
        })?;
        match self.fire(idx, launch) {
            FaultKind::CorruptOutput {
                output,
                block,
                xor_bits,
            } => {
                // A zero mask would make the injected fault a silent
                // no-op; promote it to a sign flip.
                Some((output, block, if xor_bits == 0 { 0x8000_0000 } else { xor_bits }))
            }
            _ => unreachable!("filtered above"),
        }
    }
}

// ---------------------------------------------------------------------
// Cancellation and deterministic backoff.

/// A shared cancellation flag: the watchdog's handle into an injected
/// sleep (and into a recovery ladder's retry loop).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; every sleeper polling this token wakes.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Sleeps up to `total`, polling `cancel` (and an optional deadline) in
/// millisecond slices. Returns `true` if the full duration elapsed,
/// `false` if the sleep was cut short by cancellation or the deadline.
pub fn cancellable_sleep(total: Duration, cancel: &CancelToken, deadline: Option<Instant>) -> bool {
    let end = Instant::now() + total;
    loop {
        if cancel.is_cancelled() {
            return false;
        }
        let now = Instant::now();
        if let Some(d) = deadline {
            if now >= d {
                return false;
            }
        }
        if now >= end {
            return true;
        }
        let mut slice = end - now;
        if let Some(d) = deadline {
            slice = slice.min(d.saturating_duration_since(now));
        }
        std::thread::sleep(slice.min(Duration::from_millis(1)));
    }
}

/// Deterministic jittered exponential backoff: attempt `k` sleeps
/// `base · 2^k` scaled by a seeded jitter factor in `[0.5, 1.5)`,
/// capped. Pure function of `(seed, attempt)` — reproducible runs have
/// reproducible pauses.
#[derive(Debug, Clone)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    seed: u64,
}

impl Backoff {
    /// A backoff schedule with the given base, cap and jitter seed.
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Self {
        Backoff {
            base_ms,
            cap_ms,
            seed,
        }
    }

    /// The delay before retry number `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self.base_ms.saturating_mul(1u64 << attempt.min(16));
        let mut state = self.seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // Jitter in [0.5, 1.5): de-synchronizes retry herds without
        // breaking determinism (the factor depends only on seed+attempt).
        let jitter = 0.5 + (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        let ms = ((exp as f64) * jitter).round() as u64;
        Duration::from_millis(ms.clamp(self.base_ms.min(self.cap_ms), self.cap_ms))
    }
}

/// SplitMix64 — the crate's only source of (seeded) randomness.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// The resilience evidence schema.

/// Per-launch recovery evidence: what was injected, what the ladder did
/// about it, and how much deadline was left when the result was handed
/// back. One record per *logical* launch (retries fold into it).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LaunchResilience {
    /// Logical launch index within the context's lifetime.
    pub launch: u64,
    /// Kernel name.
    pub kernel: String,
    /// Backend the launch first dispatched on.
    pub backend: String,
    /// Dispatch attempts (1 = clean first try).
    pub attempts: u32,
    /// Retries after transient failures (attempts − 1 − panics folded).
    pub retries: u32,
    /// Panics caught by the ladder's unwind shield.
    pub panics_caught: u32,
    /// Corruptions caught by redundant execution.
    pub corruptions_detected: u32,
    /// Faults the injector fired during this launch, in order.
    pub injected: Vec<InjectedFault>,
    /// `from → to (verification)` when the launch failed over.
    pub failover: Option<String>,
    /// Wall-clock from first attempt to success/failure.
    pub elapsed_ms: f64,
    /// Margin left under the per-launch deadline (negative = missed);
    /// `None` when no deadline was configured.
    pub deadline_margin_ms: Option<f64>,
    /// False iff a configured deadline was exceeded.
    pub deadline_met: bool,
}

impl LaunchResilience {
    /// Whether anything noteworthy happened (the quiet majority of
    /// launches stays out of rendered reports).
    pub fn eventful(&self) -> bool {
        self.attempts > 1
            || !self.injected.is_empty()
            || self.failover.is_some()
            || self.corruptions_detected > 0
            || !self.deadline_met
    }
}

/// Aggregated resilience evidence over many launches — the figure a
/// compliance report carries and a service exports as counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceSummary {
    /// Launches recorded.
    pub launches: u64,
    /// Faults injected across them.
    pub injected_faults: u64,
    /// Transient-failure retries.
    pub retries: u64,
    /// Panics caught and contained.
    pub panics_caught: u64,
    /// Corruptions caught by redundant execution.
    pub corruptions_detected: u64,
    /// Backend failovers (each verified against the oracle).
    pub failovers: u64,
    /// Launches that exceeded their deadline.
    pub deadline_misses: u64,
    /// Tightest observed deadline margin in milliseconds.
    pub min_deadline_margin_ms: Option<f64>,
}

impl ResilienceSummary {
    /// Folds one launch record into the summary.
    pub fn absorb(&mut self, r: &LaunchResilience) {
        self.launches += 1;
        self.injected_faults += r.injected.len() as u64;
        self.retries += u64::from(r.retries);
        self.panics_caught += u64::from(r.panics_caught);
        self.corruptions_detected += u64::from(r.corruptions_detected);
        self.failovers += u64::from(r.failover.is_some());
        self.deadline_misses += u64::from(!r.deadline_met);
        if let Some(m) = r.deadline_margin_ms {
            self.min_deadline_margin_ms = Some(match self.min_deadline_margin_ms {
                Some(prev) => prev.min(m),
                None => m,
            });
        }
    }

    /// Summarizes a slice of launch records.
    pub fn from_records(records: &[LaunchResilience]) -> Self {
        let mut s = ResilienceSummary::default();
        for r in records {
            s.absorb(r);
        }
        s
    }

    /// True when nothing was recorded (reports omit the section).
    pub fn is_empty(&self) -> bool {
        self.launches == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_once_at_their_launch() {
        let plan = FaultPlan::new().with_latency(2, 5).with_panic(2).with_hang(4);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.pre_dispatch(0), PreDispatch::Proceed);
        assert_eq!(inj.pre_dispatch(1), PreDispatch::Proceed);
        // Launch 2 carries two faults, consumed in schedule order.
        assert_eq!(inj.pre_dispatch(2), PreDispatch::Latency { millis: 5 });
        assert_eq!(inj.pre_dispatch(2), PreDispatch::Panic);
        assert_eq!(inj.pre_dispatch(2), PreDispatch::Proceed);
        // Retrying launch 2 re-fires nothing.
        assert_eq!(inj.pre_dispatch(2), PreDispatch::Proceed);
        assert_eq!(inj.pre_dispatch(4), PreDispatch::Hang);
        assert_eq!(inj.injected().len(), 3);
    }

    #[test]
    fn stall_is_scheduled_like_any_fault() {
        let plan = FaultPlan::new().with_stall(1, 30);
        assert_eq!(plan.faults[0].kind.to_string(), "stall(30ms)");
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.pre_dispatch(1), PreDispatch::Stall { millis: 30 });
        assert_eq!(inj.pre_dispatch(1), PreDispatch::Proceed);
    }

    #[test]
    fn persistent_loss_latches_until_failover() {
        let plan = FaultPlan::new().with_device_loss(1, true);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.pre_dispatch(0), PreDispatch::Proceed);
        assert_eq!(inj.pre_dispatch(1), PreDispatch::DeviceLost { persistent: true });
        // Latched: every later launch (and retry) sees the loss.
        assert_eq!(inj.pre_dispatch(1), PreDispatch::DeviceLost { persistent: true });
        assert_eq!(inj.pre_dispatch(7), PreDispatch::DeviceLost { persistent: true });
        assert!(inj.device_lost());
        inj.mark_failed_over();
        assert!(!inj.device_lost());
        assert_eq!(inj.pre_dispatch(8), PreDispatch::Proceed);
        // Only the single firing was logged, not the latched repeats.
        assert_eq!(inj.injected().len(), 1);
    }

    #[test]
    fn transient_loss_fails_exactly_one_attempt() {
        let plan = FaultPlan::new().with_device_loss(3, false);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.pre_dispatch(3), PreDispatch::DeviceLost { persistent: false });
        assert!(!inj.device_lost());
        assert_eq!(inj.pre_dispatch(3), PreDispatch::Proceed);
    }

    #[test]
    fn corruption_is_post_dispatch_and_never_a_noop() {
        let plan = FaultPlan::new().with_corruption(5, 0, 2, 0);
        let mut inj = FaultInjector::new(plan);
        // Corruption does not surface pre-dispatch.
        assert_eq!(inj.pre_dispatch(5), PreDispatch::Proceed);
        let (out, block, bits) = inj.corruption(5).expect("scheduled");
        assert_eq!((out, block), (0, 2));
        assert_ne!(bits, 0, "zero mask must be promoted");
        assert_eq!(inj.corruption(5), None, "consumed");
    }

    #[test]
    fn random_plans_are_deterministic_and_bounded() {
        let mix = FaultMix::default();
        let a = FaultPlan::random(42, 10, &mix);
        let b = FaultPlan::random(42, 10, &mix);
        assert_eq!(a, b);
        let c = FaultPlan::random(43, 10, &mix);
        assert!(a != c || a.faults.is_empty());
        for f in &a.faults {
            assert!(f.launch < 10);
        }
        let total_bound = mix.max_device_losses
            + mix.max_corruptions
            + mix.max_panics
            + mix.max_latency_spikes
            + mix.max_hangs;
        assert!(a.faults.len() <= total_bound as usize);
    }

    #[test]
    fn cancellable_sleep_is_cancellable() {
        let token = CancelToken::new();
        token.cancel();
        let start = Instant::now();
        assert!(!cancellable_sleep(Duration::from_secs(60), &token, None));
        assert!(start.elapsed() < Duration::from_secs(1));
        // Deadline also cuts the sleep short.
        let fresh = CancelToken::new();
        let start = Instant::now();
        assert!(!cancellable_sleep(
            Duration::from_secs(60),
            &fresh,
            Some(Instant::now() + Duration::from_millis(5)),
        ));
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        let b = Backoff::new(2, 100, 7);
        assert_eq!(b.delay(0), b.delay(0));
        for k in 0..10 {
            let d = b.delay(k).as_millis() as u64;
            assert!((1..=100).contains(&d), "attempt {k}: {d}ms");
        }
        // The cap holds even for absurd attempt counts.
        assert!(b.delay(60).as_millis() as u64 <= 100);
    }

    #[test]
    fn summary_absorbs_records() {
        let mut r = LaunchResilience {
            launch: 3,
            retries: 2,
            attempts: 3,
            deadline_met: true,
            deadline_margin_ms: Some(4.0),
            ..Default::default()
        };
        r.injected.push(InjectedFault {
            launch: 3,
            kind: FaultKind::Panic,
        });
        let quiet = LaunchResilience {
            launch: 4,
            attempts: 1,
            deadline_met: true,
            deadline_margin_ms: Some(9.0),
            ..Default::default()
        };
        assert!(r.eventful());
        assert!(!quiet.eventful());
        let s = ResilienceSummary::from_records(&[r, quiet]);
        assert_eq!(s.launches, 2);
        assert_eq!(s.retries, 2);
        assert_eq!(s.injected_faults, 1);
        assert_eq!(s.min_deadline_margin_ms, Some(4.0));
        assert!(!s.is_empty());
    }
}
