//! The per-launch recovery ladder: deadlines, bounded retry with
//! deterministic jittered backoff, contained panics, redundant-execution
//! corruption detection and bit-exact backend failover.
//!
//! Brook Auto's certification argument needs evidence of *fault
//! response*, not just fault-free behavior (paper §2 rules d/e). This
//! module is the response half: [`crate::BrookContext`] routes every
//! `run`/`reduce` through [`execute_resilient`] once a fault plan or a
//! [`ResiliencePolicy`] is installed — one `Option` check on the
//! fault-free hot path — and the ladder turns injected (or real) device
//! loss, hangs, panics and corruption back into correct results, each
//! recovery attributed in a [`LaunchResilience`] record.
//!
//! The ladder is sound because of a global Brook invariant the context
//! enforces at classification time: kernels never read their own output
//! (ping-pong streams instead), so re-dispatching a launch is
//! idempotent — retries, redundant execution and failover re-execution
//! all recompute the same values from unchanged inputs.
//!
//! The failover path replays host *shadow* copies of every stream
//! (maintained whenever a policy with `failover` is installed) into a
//! fresh serial CPU backend, re-executes the launch there **and** on the
//! independent AST-walker oracle, and only commits the switch when the
//! two agree bit-for-bit — a failed device can degrade latency, never
//! correctness.

use crate::backend::{BackendExecutor, KernelLaunch};
use crate::cpu::CpuBackend;
use crate::error::{BrookError, Result};
use crate::stream::StreamDesc;
use brook_inject::{
    cancellable_sleep, Backoff, CancelToken, FaultInjector, FaultPlan, LaunchResilience, PreDispatch,
    ResilienceSummary,
};
use brook_lang::{CheckedProgram, ReduceOp};
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What the recovery ladder is allowed to do about a failed attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePolicy {
    /// Retry budget for transient failures (device loss, timeouts,
    /// contained panics) per launch.
    pub max_retries: u32,
    /// Backoff base in milliseconds for retry number 0.
    pub backoff_base_ms: u64,
    /// Backoff cap in milliseconds.
    pub backoff_cap_ms: u64,
    /// Whole-launch deadline: the ladder gives up (and records a
    /// deadline miss) rather than retry past it. `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Per-attempt watchdog: an attempt (including an injected hang) is
    /// cancelled after this long so the *launch* can still recover
    /// within its deadline. `None` = attempts are unbounded.
    pub attempt_timeout_ms: Option<u64>,
    /// Fail over to the serial CPU backend on persistent device loss
    /// (or transient-retry exhaustion with a device-loss error),
    /// verifying the re-execution bit-exact against the AST oracle.
    /// Enabling this maintains host shadow copies of every stream.
    pub failover: bool,
    /// Re-execute every successful launch and compare outputs bitwise —
    /// the redundant-execution corruption detector. Doubles dispatch
    /// cost; campaigns enable it, latency-sensitive callers don't.
    pub redundant_check: bool,
    /// Contain panics that escape dispatch (unwind-shield + retry).
    /// When false, panics propagate to the caller's shield (the serve
    /// layer's tenant poisoning / circuit breaker).
    pub catch_panics: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            max_retries: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 20,
            deadline_ms: None,
            attempt_timeout_ms: Some(1_000),
            failover: true,
            redundant_check: false,
            catch_panics: true,
        }
    }
}

/// The full resilience evidence of a context: every per-launch record
/// still held plus the cumulative summary (the figure
/// `ComplianceReport` carries).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceReport {
    /// Per-launch records (in launch order) not yet drained by
    /// [`crate::BrookContext::take_resilience_records`].
    pub records: Vec<LaunchResilience>,
    /// Cumulative summary over the context's lifetime (survives
    /// draining).
    pub summary: ResilienceSummary,
}

/// Per-context resilience state: the injector executing a fault plan,
/// the recovery policy, the watchdog's cancel token, stream shadows for
/// failover, and the accumulated evidence.
pub(crate) struct ResilienceState {
    pub(crate) injector: Option<FaultInjector>,
    pub(crate) policy: Option<ResiliencePolicy>,
    pub(crate) cancel: CancelToken,
    /// Logical launch counter (runs and reduces share it; retries keep
    /// their launch's index).
    launches: u64,
    records: Vec<LaunchResilience>,
    summary: ResilienceSummary,
    /// Host shadow copies `stream index → (desc, values)`, maintained
    /// only when the policy enables failover. Indices are dense (every
    /// backend allocates sequentially and never frees), so replaying in
    /// order reproduces identical indices on a fresh backend.
    shadows: BTreeMap<usize, (StreamDesc, Vec<f32>)>,
}

impl ResilienceState {
    pub(crate) fn new() -> Self {
        ResilienceState {
            injector: None,
            policy: None,
            cancel: CancelToken::new(),
            launches: 0,
            records: Vec::new(),
            summary: ResilienceSummary::default(),
            shadows: BTreeMap::new(),
        }
    }

    pub(crate) fn install_plan(&mut self, plan: FaultPlan) {
        self.injector = Some(FaultInjector::new(plan));
    }

    pub(crate) fn shadows_enabled(&self) -> bool {
        self.policy.as_ref().is_some_and(|p| p.failover)
    }

    /// Registers a freshly created (zero-initialized) stream shadow.
    pub(crate) fn note_stream(&mut self, index: usize, desc: StreamDesc) {
        if self.shadows_enabled() {
            let zeros = vec![0.0; desc.scalar_len()];
            self.shadows.insert(index, (desc, zeros));
        }
    }

    /// Mirrors a host write into the shadow.
    pub(crate) fn note_write(&mut self, index: usize, values: &[f32]) {
        if self.shadows_enabled() {
            if let Some((_, v)) = self.shadows.get_mut(&index) {
                values.clone_into(v);
            }
        }
    }

    pub(crate) fn take_records(&mut self) -> Vec<LaunchResilience> {
        std::mem::take(&mut self.records)
    }

    pub(crate) fn report(&self) -> ResilienceReport {
        ResilienceReport {
            records: self.records.clone(),
            summary: self.summary.clone(),
        }
    }

    pub(crate) fn summary(&self) -> ResilienceSummary {
        self.summary.clone()
    }

    /// Re-reads every shadowed stream from the backend — the
    /// catch-up hook for execution paths that bypass the per-launch
    /// ladder (the graph executor dispatches its fused plan directly).
    pub(crate) fn sync_shadows(&mut self, backend: &mut (dyn BackendExecutor + Send)) -> Result<()> {
        if !self.shadows_enabled() {
            return Ok(());
        }
        for (idx, (_, values)) in self.shadows.iter_mut() {
            *values = backend.read_stream(*idx)?;
        }
        Ok(())
    }

    /// Snapshots shadows for streams created before the policy was
    /// installed (indices `0..count`).
    pub(crate) fn snapshot_missing(
        &mut self,
        backend: &mut (dyn BackendExecutor + Send),
        count: usize,
    ) -> Result<()> {
        if !self.shadows_enabled() {
            return Ok(());
        }
        for idx in 0..count {
            if let std::collections::btree_map::Entry::Vacant(e) = self.shadows.entry(idx) {
                let desc = backend.stream_desc(idx).clone();
                let values = backend.read_stream(idx)?;
                e.insert((desc, values));
            }
        }
        Ok(())
    }
}

/// One unit of resilient work: a kernel launch or a reduction.
pub(crate) enum Work<'l, 'a> {
    Launch(&'l KernelLaunch<'a>),
    Reduce {
        checked: &'a CheckedProgram,
        ir: &'a brook_ir::IrProgram,
        kernel: &'a str,
        op: ReduceOp,
        simd: Option<&'a brook_ir::simd::ReduceKernel>,
        input: usize,
    },
}

impl Work<'_, '_> {
    fn run_on(&self, backend: &mut (dyn BackendExecutor + Send)) -> Result<Option<f32>> {
        match self {
            Work::Launch(l) => backend.dispatch(l).map(|()| None),
            Work::Reduce {
                checked,
                ir,
                kernel,
                op,
                simd,
                input,
            } => backend.reduce(checked, ir, kernel, *op, *simd, *input).map(Some),
        }
    }
}

/// Transient failures: retrying is sound (idempotent dispatch) and
/// plausibly useful.
fn is_transient(e: &BrookError) -> bool {
    matches!(e, BrookError::Timeout(_) | BrookError::DeviceLost(_))
        || matches!(e, BrookError::Gl(gles2_sim::GlError::ContextLost(_)))
}

/// Failures that mean the *device* is gone — the failover trigger.
fn is_device_loss(e: &BrookError) -> bool {
    matches!(e, BrookError::DeviceLost(_)) || matches!(e, BrookError::Gl(gles2_sim::GlError::ContextLost(_)))
}

/// How one attempt ended, from the retry loop's point of view.
enum Attempt {
    Done(Option<f32>),
    /// Transient failure; `true` when a panic was contained (counted
    /// separately from retries in the record).
    Retryable(BrookError, bool),
    Fatal(BrookError),
}

/// Executes one launch (or reduce) through the recovery ladder.
/// Returns `Some(scalar)` for reduces, `None` for launches.
pub(crate) fn execute_resilient(
    backend: &mut Box<dyn BackendExecutor + Send>,
    state: &mut ResilienceState,
    kernel: &str,
    work: Work<'_, '_>,
) -> Result<Option<f32>> {
    let launch_idx = state.launches;
    state.launches += 1;
    let started = Instant::now();
    let deadline = state
        .policy
        .as_ref()
        .and_then(|p| p.deadline_ms)
        .map(|ms| started + Duration::from_millis(ms));
    let mut rec = LaunchResilience {
        launch: launch_idx,
        kernel: kernel.to_string(),
        backend: backend.name().to_string(),
        deadline_met: true,
        ..Default::default()
    };
    let injected_before = state.injector.as_ref().map_or(0, |i| i.injected().len());
    let seed = state.injector.as_ref().map_or(0, |i| i.plan().seed);
    let backoff = {
        let (base, cap) = state
            .policy
            .as_ref()
            .map_or((1, 20), |p| (p.backoff_base_ms, p.backoff_cap_ms));
        // Per-launch jitter stream: reproducible runs have reproducible
        // pauses, but concurrent launches never sleep in lockstep.
        Backoff::new(base, cap, seed ^ launch_idx.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    };
    let max_retries = state.policy.as_ref().map_or(0, |p| p.max_retries);

    let mut attempt_no: u32 = 0;
    let result = loop {
        attempt_no += 1;
        rec.attempts = attempt_no;
        if let Some(d) = deadline {
            if Instant::now() >= d {
                rec.deadline_met = false;
                break Err(BrookError::Timeout(format!(
                    "launch {launch_idx} (`{kernel}`) exceeded its deadline before attempt \
                     {attempt_no}"
                )));
            }
        }
        let attempt_deadline = {
            let watchdog = state
                .policy
                .as_ref()
                .and_then(|p| p.attempt_timeout_ms)
                .map(|ms| Instant::now() + Duration::from_millis(ms));
            match (watchdog, deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        };

        match run_attempt(backend, state, &work, launch_idx, attempt_deadline, &mut rec) {
            Attempt::Done(v) => break Ok(v),
            Attempt::Fatal(e) => break Err(e),
            Attempt::Retryable(e, _panicked) => {
                // A latched persistent loss can't be retried away: fail
                // over now (when allowed) instead of burning the budget.
                let latched = state.injector.as_ref().is_some_and(|i| i.device_lost());
                let may_failover = state.shadows_enabled() && is_device_loss(&e);
                let exhausted = attempt_no > max_retries;
                if may_failover && (latched || exhausted) {
                    match failover(backend, state, kernel, &work, &mut rec) {
                        Ok(v) => break Ok(v),
                        Err(fe) => break Err(fe),
                    }
                }
                if exhausted {
                    break Err(e);
                }
                rec.retries += 1;
                // Jittered backoff, cut short by deadline/cancellation
                // (the next iteration's deadline check then reports the
                // miss).
                cancellable_sleep(backoff.delay(attempt_no - 1), &state.cancel, deadline);
            }
        }
    };

    // Attribution and evidence, success or not.
    rec.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    if let Some(dl_ms) = state.policy.as_ref().and_then(|p| p.deadline_ms) {
        let margin = dl_ms as f64 - rec.elapsed_ms;
        rec.deadline_margin_ms = Some(margin);
        rec.deadline_met = rec.deadline_met && margin >= 0.0;
    }
    if let Some(inj) = state.injector.as_ref() {
        rec.injected = inj.injected()[injected_before..].to_vec();
    }
    state.summary.absorb(&rec);
    state.records.push(rec);

    // Keep failover shadows current: outputs of a successful launch may
    // feed later launches (ping-pong), so they must be replayable.
    if result.is_ok() && state.shadows_enabled() {
        if let Work::Launch(l) = &work {
            for (_, out_idx) in &l.outputs {
                let values = backend.read_stream(*out_idx)?;
                state.note_write(*out_idx, &values);
            }
        }
    }
    result
}

/// One dispatch attempt: pre-dispatch fault evaluation, the (optionally
/// unwind-shielded) dispatch itself, then post-dispatch corruption
/// injection and the redundant-execution check.
fn run_attempt(
    backend: &mut Box<dyn BackendExecutor + Send>,
    state: &mut ResilienceState,
    work: &Work<'_, '_>,
    launch_idx: u64,
    attempt_deadline: Option<Instant>,
    rec: &mut LaunchResilience,
) -> Attempt {
    // Disjoint field borrows: the injector is consulted while the
    // cancel token is polled inside injected sleeps.
    let ResilienceState {
        injector,
        policy,
        cancel,
        ..
    } = state;
    let catch_panics = policy.as_ref().is_some_and(|p| p.catch_panics);
    // Pre-dispatch faults, in schedule order, until the plan lets the
    // attempt proceed (or fails it).
    if let Some(inj) = injector.as_mut() {
        loop {
            match inj.pre_dispatch(launch_idx) {
                PreDispatch::Proceed => break,
                PreDispatch::DeviceLost { persistent } => {
                    if persistent {
                        // Make the loss real on device backends so any
                        // bypassing access fails honestly too.
                        backend.set_device_lost(true);
                    }
                    return Attempt::Retryable(
                        BrookError::DeviceLost(format!(
                            "injected {} device loss at launch {launch_idx}",
                            if persistent { "persistent" } else { "transient" },
                        )),
                        false,
                    );
                }
                PreDispatch::Panic => {
                    if catch_panics {
                        rec.panics_caught += 1;
                        return Attempt::Retryable(
                            BrookError::Internal(format!(
                                "injected worker panic at launch {launch_idx} (contained)"
                            )),
                            true,
                        );
                    }
                    panic!("brook-inject: injected worker panic at launch {launch_idx}");
                }
                PreDispatch::Latency { millis } => {
                    if !cancellable_sleep(Duration::from_millis(millis), cancel, attempt_deadline) {
                        return Attempt::Retryable(
                            BrookError::Timeout(format!(
                                "attempt cancelled during injected {millis}ms latency spike \
                                 at launch {launch_idx}"
                            )),
                            false,
                        );
                    }
                    // Spike absorbed; keep polling the schedule.
                }
                PreDispatch::Stall { millis } => {
                    // Non-preemptible work: neither the cancel token nor
                    // the deadline can cut it short.
                    std::thread::sleep(Duration::from_millis(millis));
                }
                PreDispatch::Hang => {
                    // A wedged device: sleep until the watchdog cancels
                    // the attempt or its deadline passes. Unbounded when
                    // neither exists — exactly the failure mode the
                    // serve watchdog (and the policy's attempt timeout)
                    // were built to cover.
                    while cancellable_sleep(Duration::from_secs(3600), cancel, attempt_deadline) {}
                    return Attempt::Retryable(
                        BrookError::Timeout(format!(
                            "injected hang at launch {launch_idx} cancelled by the watchdog"
                        )),
                        false,
                    );
                }
            }
        }
    }

    // The dispatch itself, unwind-shielded when the policy asks for it.
    let dispatched: Result<Option<f32>> = if catch_panics {
        match panic::catch_unwind(AssertUnwindSafe(|| work.run_on(backend.as_mut()))) {
            Ok(r) => r,
            Err(_) => {
                rec.panics_caught += 1;
                return Attempt::Retryable(
                    BrookError::Internal(format!(
                        "panic during dispatch of launch {launch_idx} (contained by the \
                         recovery shield)"
                    )),
                    true,
                );
            }
        }
    } else {
        work.run_on(backend.as_mut())
    };
    let value = match dispatched {
        Ok(v) => v,
        Err(e) if is_transient(&e) => return Attempt::Retryable(e, false),
        Err(e) => return Attempt::Fatal(e),
    };

    // Post-dispatch: transient result corruption + redundant execution.
    if let Work::Launch(l) = work {
        if let Some((out, block, xor)) = injector.as_mut().and_then(|i| i.corruption(launch_idx)) {
            let (_, stream_idx) = &l.outputs[out.min(l.outputs.len() - 1)];
            if let Err(e) = corrupt_stream(backend.as_mut(), *stream_idx, block, xor) {
                return Attempt::Fatal(e);
            }
        }
        if policy.as_ref().is_some_and(|p| p.redundant_check) {
            match redundant_check(backend.as_mut(), l) {
                Ok(true) => rec.corruptions_detected += 1,
                Ok(false) => {}
                Err(e) if is_transient(&e) => return Attempt::Retryable(e, false),
                Err(e) => return Attempt::Fatal(e),
            }
        }
    }
    Attempt::Done(value)
}

/// Flips `xor` into every element of lane block `block` of a stream —
/// the injected transient bit-flip redundant execution must catch.
fn corrupt_stream(
    backend: &mut (dyn BackendExecutor + Send),
    stream: usize,
    block: usize,
    xor: u32,
) -> Result<()> {
    let mut values = backend.read_stream(stream)?;
    let span = brook_ir::lanes::block_span(block, values.len());
    for v in &mut values[span] {
        *v = f32::from_bits(v.to_bits() ^ xor);
    }
    backend.write_stream(stream, &values)
}

/// Redundant execution: re-dispatch (inputs are unchanged — kernels
/// never read their own output) and compare all outputs bitwise against
/// the first execution. Returns `true` when a divergence was detected;
/// either way the streams end up holding the freshly recomputed values.
fn redundant_check(backend: &mut (dyn BackendExecutor + Send), launch: &KernelLaunch<'_>) -> Result<bool> {
    let mut first: Vec<Vec<u32>> = Vec::with_capacity(launch.outputs.len());
    for (_, idx) in &launch.outputs {
        first.push(bits_of(&backend.read_stream(*idx)?));
    }
    backend.dispatch(launch)?;
    for ((_, idx), before) in launch.outputs.iter().zip(&first) {
        if bits_of(&backend.read_stream(*idx)?) != *before {
            return Ok(true);
        }
    }
    Ok(false)
}

fn bits_of(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Bit-exact backend failover: replay the stream shadows into a fresh
/// serial CPU backend *and* the independent AST-walker oracle, execute
/// the failed work on both, and only commit the switch when every
/// output agrees bit-for-bit. On success the context runs on the CPU
/// from here on and the injector stops targeting the lost device.
fn failover(
    backend: &mut Box<dyn BackendExecutor + Send>,
    state: &mut ResilienceState,
    kernel: &str,
    work: &Work<'_, '_>,
    rec: &mut LaunchResilience,
) -> Result<Option<f32>> {
    let from = backend.name();
    let mut fresh: Box<dyn BackendExecutor + Send> = Box::new(CpuBackend::new());
    let mut oracle: Box<dyn BackendExecutor + Send> = Box::new(CpuBackend::ast_walker());
    for (idx, (desc, values)) in &state.shadows {
        for b in [fresh.as_mut(), oracle.as_mut()] {
            let got = b.create_stream(desc.clone())?;
            if got != *idx {
                return Err(BrookError::Internal(format!(
                    "failover shadow replay produced stream index {got}, expected {idx}"
                )));
            }
            b.write_stream(got, values)?;
        }
    }
    let value = work.run_on(fresh.as_mut())?;
    let oracle_value = work.run_on(oracle.as_mut())?;
    match (work, value, oracle_value) {
        (Work::Launch(l), _, _) => {
            for (name, idx) in &l.outputs {
                let a = bits_of(&fresh.read_stream(*idx)?);
                let b = bits_of(&oracle.read_stream(*idx)?);
                if a != b {
                    return Err(BrookError::Internal(format!(
                        "failover verification failed: output `{name}` of `{kernel}` \
                         diverges between the CPU backend and the AST oracle"
                    )));
                }
            }
        }
        (Work::Reduce { .. }, Some(a), Some(b)) if a.to_bits() != b.to_bits() => {
            return Err(BrookError::Internal(format!(
                "failover verification failed: reduce `{kernel}` diverges between the CPU \
                 backend and the AST oracle ({a} vs {b})"
            )));
        }
        _ => {}
    }
    *backend = fresh;
    if let Some(inj) = state.injector.as_mut() {
        inj.mark_failed_over();
    }
    rec.failover = Some(format!("{from} → cpu (verified bit-exact vs ast-oracle)"));
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{Arg, BrookContext};
    use gles2_sim::DeviceProfile;

    const DBL: &str = "kernel void dbl(float a<>, out float o<>) { o = a * 2.0; }";
    const SUM: &str = "reduce void sum(float a<>, reduce float r<>) { r += a; }";

    fn policy() -> ResiliencePolicy {
        ResiliencePolicy {
            redundant_check: true,
            ..ResiliencePolicy::default()
        }
    }

    fn run_dbl(ctx: &mut BrookContext, n: usize) -> (Vec<f32>, Result<()>) {
        let module = ctx.compile(DBL).unwrap();
        let a = ctx.stream(&[n]).unwrap();
        let o = ctx.stream(&[n]).unwrap();
        let data: Vec<f32> = (0..n).map(|i| i as f32 - 3.0).collect();
        ctx.write(&a, &data).unwrap();
        let r = ctx.run(&module, "dbl", &[Arg::Stream(&a), Arg::Stream(&o)]);
        let out = if r.is_ok() {
            ctx.read(&o).unwrap()
        } else {
            Vec::new()
        };
        (out, r)
    }

    fn expected_dbl(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 - 3.0) * 2.0).collect()
    }

    #[test]
    fn transient_device_loss_is_retried_away() {
        let mut ctx = BrookContext::cpu();
        ctx.set_resilience(policy()).unwrap();
        ctx.set_fault_plan(FaultPlan::new().with_device_loss(0, false));
        let (out, r) = run_dbl(&mut ctx, 10);
        r.unwrap();
        assert_eq!(out, expected_dbl(10));
        let recs = ctx.take_resilience_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].attempts, 2);
        assert_eq!(recs[0].retries, 1);
        assert_eq!(recs[0].injected.len(), 1);
        assert!(recs[0].failover.is_none());
    }

    #[test]
    fn persistent_gles2_loss_fails_over_bit_exact() {
        let mut ctx = BrookContext::gles2(DeviceProfile::radeon_hd3400());
        ctx.set_resilience(policy()).unwrap();
        ctx.set_fault_plan(FaultPlan::new().with_device_loss(0, true));
        let (out, r) = run_dbl(&mut ctx, 33);
        r.unwrap();
        // Failover re-executes on the serial CPU: results are bit-exact
        // to the CPU oracle by the ladder's own verification.
        assert_eq!(out, expected_dbl(33));
        assert_eq!(ctx.backend_name(), "cpu", "context now runs on the CPU");
        let recs = ctx.take_resilience_records();
        assert_eq!(recs.len(), 1);
        let f = recs[0].failover.as_deref().expect("failover attributed");
        assert!(f.starts_with("gles2-native"), "{f}");
        // The device stays usable: later launches run on the new backend.
        let (out2, r2) = run_dbl(&mut ctx, 8);
        r2.unwrap();
        assert_eq!(out2, expected_dbl(8));
    }

    #[test]
    fn injected_corruption_is_detected_and_repaired() {
        let mut ctx = BrookContext::cpu();
        ctx.set_resilience(policy()).unwrap();
        ctx.set_fault_plan(FaultPlan::new().with_corruption(0, 0, 1, 0x0040_0000));
        let (out, r) = run_dbl(&mut ctx, 40);
        r.unwrap();
        assert_eq!(out, expected_dbl(40), "redundant execution repaired the flip");
        let recs = ctx.take_resilience_records();
        assert_eq!(recs[0].corruptions_detected, 1);
        assert_eq!(recs[0].injected.len(), 1);
    }

    #[test]
    fn corruption_without_redundancy_goes_undetected() {
        // The honest negative control: detection really does come from
        // redundant execution, not from peeking at the plan.
        let mut ctx = BrookContext::cpu();
        ctx.set_resilience(ResiliencePolicy {
            redundant_check: false,
            ..policy()
        })
        .unwrap();
        ctx.set_fault_plan(FaultPlan::new().with_corruption(0, 0, 0, 0x0040_0000));
        let (out, r) = run_dbl(&mut ctx, 20);
        r.unwrap();
        assert_ne!(out, expected_dbl(20));
        assert_eq!(ctx.take_resilience_records()[0].corruptions_detected, 0);
    }

    #[test]
    fn injected_panic_is_contained_and_retried() {
        let mut ctx = BrookContext::cpu();
        ctx.set_resilience(policy()).unwrap();
        ctx.set_fault_plan(FaultPlan::new().with_panic(0));
        let (out, r) = run_dbl(&mut ctx, 12);
        r.unwrap();
        assert_eq!(out, expected_dbl(12));
        let recs = ctx.take_resilience_records();
        assert_eq!(recs[0].panics_caught, 1);
        assert!(recs[0].attempts >= 2);
    }

    #[test]
    fn injected_panic_without_policy_propagates() {
        let result = std::panic::catch_unwind(|| {
            let mut ctx = BrookContext::cpu();
            ctx.set_fault_plan(FaultPlan::new().with_panic(0));
            let _ = run_dbl(&mut ctx, 4);
        });
        assert!(result.is_err(), "raw injection must surface the panic");
    }

    #[test]
    fn hang_is_cancelled_by_attempt_watchdog_within_deadline() {
        let mut ctx = BrookContext::cpu();
        ctx.set_resilience(ResiliencePolicy {
            deadline_ms: Some(2_000),
            attempt_timeout_ms: Some(50),
            ..policy()
        })
        .unwrap();
        ctx.set_fault_plan(FaultPlan::new().with_hang(0));
        let started = std::time::Instant::now();
        let (out, r) = run_dbl(&mut ctx, 6);
        r.unwrap();
        assert_eq!(out, expected_dbl(6));
        assert!(started.elapsed() < Duration::from_secs(2));
        let recs = ctx.take_resilience_records();
        assert!(recs[0].deadline_met, "{recs:?}");
        assert!(recs[0].retries >= 1);
        assert!(recs[0].deadline_margin_ms.unwrap() > 0.0);
    }

    #[test]
    fn reduce_recovers_from_transient_loss() {
        let mut ctx = BrookContext::cpu();
        ctx.set_resilience(policy()).unwrap();
        let module = ctx.compile(SUM).unwrap();
        let a = ctx.stream(&[100]).unwrap();
        let data: Vec<f32> = (1..=100).map(|i| i as f32).collect();
        ctx.write(&a, &data).unwrap();
        // Stream writes don't consume launch indices; the reduce is
        // logical launch 0.
        ctx.set_fault_plan(FaultPlan::new().with_device_loss(0, false));
        assert_eq!(ctx.reduce(&module, "sum", &a).unwrap(), 5050.0);
        let recs = ctx.take_resilience_records();
        assert_eq!(recs[0].retries, 1);
    }

    #[test]
    fn reduce_fails_over_on_persistent_loss() {
        let mut ctx = BrookContext::gles2(DeviceProfile::videocore_iv());
        ctx.set_resilience(policy()).unwrap();
        let module = ctx.compile(SUM).unwrap();
        let a = ctx.stream(&[64]).unwrap();
        let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
        ctx.write(&a, &data).unwrap();
        ctx.set_fault_plan(FaultPlan::new().with_device_loss(0, true));
        let total = ctx.reduce(&module, "sum", &a).unwrap();
        assert_eq!(total, (0..64).sum::<i32>() as f32);
        assert_eq!(ctx.backend_name(), "cpu");
        assert!(ctx.take_resilience_records()[0].failover.is_some());
    }

    #[test]
    fn summary_flows_into_compliance_report() {
        let mut ctx = BrookContext::cpu();
        ctx.set_resilience(policy()).unwrap();
        ctx.set_fault_plan(
            FaultPlan::new()
                .with_device_loss(0, false)
                .with_corruption(1, 0, 0, 0x1000),
        );
        let module = ctx.compile(DBL).unwrap();
        let a = ctx.stream(&[8]).unwrap();
        let o = ctx.stream(&[8]).unwrap();
        ctx.write(&a, &[1.0; 8]).unwrap();
        ctx.run(&module, "dbl", &[Arg::Stream(&a), Arg::Stream(&o)])
            .unwrap();
        ctx.run(&module, "dbl", &[Arg::Stream(&a), Arg::Stream(&o)])
            .unwrap();
        let report = ctx.compliance_with_resilience(&module);
        assert_eq!(report.resilience.launches, 2);
        assert_eq!(report.resilience.retries, 1);
        assert_eq!(report.resilience.corruptions_detected, 1);
        assert_eq!(report.resilience.injected_faults, 2);
        let rendered = brook_cert::render_report(&report);
        assert!(rendered.contains("resilience evidence"), "{rendered}");
        // The fault-free compile-time report stays unchanged.
        assert!(!brook_cert::render_report(&module.report).contains("resilience evidence"));
    }

    #[test]
    fn deadline_miss_is_recorded_and_reported() {
        let mut ctx = BrookContext::cpu();
        ctx.set_resilience(ResiliencePolicy {
            deadline_ms: Some(30),
            attempt_timeout_ms: Some(10),
            max_retries: 50,
            ..policy()
        })
        .unwrap();
        // Two hangs back to back: the watchdog unwedges each attempt,
        // but the launch cannot finish before its deadline.
        ctx.set_fault_plan(
            FaultPlan::new()
                .with_hang(0)
                .with_hang(0)
                .with_hang(0)
                .with_hang(0)
                .with_hang(0),
        );
        let (_, r) = run_dbl(&mut ctx, 4);
        assert!(matches!(r, Err(BrookError::Timeout(_))), "{r:?}");
        let recs = ctx.take_resilience_records();
        assert!(!recs[0].deadline_met);
        assert!(recs[0].deadline_margin_ms.unwrap() < 0.0);
        assert_eq!(ctx.resilience_summary().deadline_misses, 1);
    }

    #[test]
    fn failover_replays_streams_written_before_the_policy() {
        // Streams created/written before set_resilience are snapshotted
        // at install time, so failover still replays them faithfully.
        let mut ctx = BrookContext::gles2(DeviceProfile::radeon_hd3400());
        let module = ctx.compile(DBL).unwrap();
        let a = ctx.stream(&[16]).unwrap();
        let o = ctx.stream(&[16]).unwrap();
        let data: Vec<f32> = (0..16).map(|i| i as f32 * 0.25).collect();
        ctx.write(&a, &data).unwrap();
        ctx.set_resilience(policy()).unwrap();
        ctx.set_fault_plan(FaultPlan::new().with_device_loss(0, true));
        ctx.run(&module, "dbl", &[Arg::Stream(&a), Arg::Stream(&o)])
            .unwrap();
        let out = ctx.read(&o).unwrap();
        let want: Vec<f32> = data.iter().map(|v| v * 2.0).collect();
        assert_eq!(out, want);
    }
}
