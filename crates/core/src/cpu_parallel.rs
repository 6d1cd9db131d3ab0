//! The data-parallel CPU backend: Brook's "every output element is
//! independent" guarantee, cashed in on multi-core hosts.
//!
//! Brook kernels are forbidden from communicating between elements (no
//! shared mutable state, no scatter), which is the paper's certification
//! argument *and* a parallelization licence: any split of the output
//! domain gives the same bits. A launch splits its domain into
//! `LANES`-aligned pieces, about `PIECES_PER_PARTICIPANT` per
//! participant, and pre-splits every output buffer into matching
//! disjoint slices. The participants — the calling thread and the
//! helpers of the process-wide pool (`pool.rs`) — claim pieces
//! from an atomic counter until none are left, so a participant whose
//! pieces ran cheap (mandelbrot's rows cost unevenly) takes more. Each
//! piece runs the same IR engines as [`crate::cpu::CpuBackend`] in the
//! claiming thread's own slab frame, reused across launches, so results
//! are **bit-identical** to the serial backend whoever runs which piece.
//!
//! A failing launch reports the error of its lowest-index failing
//! piece, which is the serial backend's first failing element; pieces
//! after a known failure are not claimed. One launch holds the pool at a
//! time: a launch that finds it busy (another context's) runs every
//! piece on its caller.
//!
//! Reductions stay serial by default: a chunked tree fold would change
//! the floating-point association order and break bit-equality with
//! the reference backend, which the differential-test layer asserts.
//! The one exception is the **admitted vectorized reduce path**
//! (`brook_ir::simd::ReduceKernel`): its admission proof (NaN-free,
//! sign-definite `min`/`max` operands) makes the combine a lattice
//! operation whose result is one unique bit pattern under *any*
//! association, so the map phase is claimed piece by piece like a
//! launch, into a partials buffer the backend keeps, and the fold stays
//! bit-identical to the serial backend by construction.

use crate::backend::{ir_kernel, BackendExecutor, KernelLaunch};
use crate::cpu;
use crate::error::{BrookError, Result};
use crate::pool;
use crate::stream::StreamDesc;
use brook_ir::interp as ir_interp;
use brook_ir::lanes::{LaneSlabs, LANES};
use brook_ir::IrKernel;
use brook_lang::{CheckedProgram, ReduceOp};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Below this many output elements the fan-out costs more than it
/// saves; dispatches run serially on the calling thread through
/// `ir_run_full` (Tier-2 when the kernel was admitted, else the lane
/// engine, else the scalar interpreter).
pub const PARALLEL_THRESHOLD: usize = 256;

/// Upper bound on a launch's participants, and so on the pool's threads
/// (beyond this the interpreter is memory-bound and extra workers only
/// add scheduling noise).
pub(crate) const MAX_WORKERS: usize = 16;

/// Pieces a launch cuts per participant: enough that a participant
/// that finishes early claims more while the others still run.
const PIECES_PER_PARTICIPANT: usize = 8;

thread_local! {
    /// The slab frame this thread runs its launches and pieces in,
    /// caller or pool helper: sized on first use and reused by every
    /// later launch.
    static FRAME: RefCell<LaneSlabs> = RefCell::new(LaneSlabs::new());
}

/// The parallel CPU interpreter backend.
///
/// See the module docs for the parallel dispatch and (vectorized)
/// reduce contracts.
pub struct ParallelCpuBackend {
    streams: Vec<(StreamDesc, Vec<f32>)>,
    workers: usize,
    /// The admitted reduce's map-phase partials, reused across reduces.
    partials: Vec<f32>,
}

impl ParallelCpuBackend {
    /// A backend whose launches may use one participant per available
    /// core (capped): the caller and every helper of the pool.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(MAX_WORKERS);
        Self::with_workers(workers)
    }

    /// A backend whose launches use at most `workers` participants: the
    /// caller plus up to `workers − 1` pool helpers, never more than the
    /// pool has (`0` is clamped to 1; `1` degenerates to the serial
    /// path). A launch that finds the pool busy runs on its caller alone.
    pub fn with_workers(workers: usize) -> Self {
        ParallelCpuBackend {
            streams: Vec::new(),
            workers: workers.max(1),
            partials: Vec::new(),
        }
    }

    /// The admitted vectorized reduce: per-element combine operands are
    /// produced by the map phase, claimed piece by piece, into disjoint
    /// slices of the backend's partials buffer, then folded in index
    /// order with the SIMD combine. Deterministic regardless of who ran
    /// which piece — and, by the admission proof, bitwise equal to the
    /// serial fold. Any map fault discards the partials and reruns the
    /// serial fold so error surfaces stay canonical.
    fn reduce_vectorized(
        &mut self,
        rk: &brook_ir::simd::ReduceKernel,
        kernel: &IrKernel,
        input: usize,
    ) -> Result<f32> {
        let data = &self.streams[input].1;
        let n = data.len();
        if n < PARALLEL_THRESHOLD || self.workers == 1 {
            return brook_ir::simd::run_reduce(rk, kernel, data).map_err(cpu::exec_err);
        }
        let xs = &mut self.partials;
        xs.clear();
        xs.resize(n, rk.op.identity());
        let ranges = pieces(n, self.workers);
        let outs = split_pieces(xs, &ranges, 1);
        let mapped = claim_pieces(outs, self.workers - 1, |i, out| {
            rk.run_map(data, out, n, ranges[i].clone()).map_err(cpu::exec_err)
        });
        if mapped.is_err() {
            // Canonical error surface: the serial fold reproduces the
            // exact element attribution and message.
            return ir_interp::run_reduce(kernel, data).map_err(cpu::exec_err);
        }
        Ok(brook_ir::simd::fold(rk.op, rk.level, xs))
    }

    /// The most participants a launch of this backend uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// True when a launch with this domain and output set takes the
    /// parallel path (used by tests to pin coverage of both paths).
    fn parallelizable(&self, total: usize, uniform_outputs: bool) -> bool {
        self.workers > 1 && total >= PARALLEL_THRESHOLD && uniform_outputs
    }
}

impl Default for ParallelCpuBackend {
    fn default() -> Self {
        Self::new()
    }
}

/// Splits `0..total` into `LANES`-aligned pieces, about
/// [`PIECES_PER_PARTICIPANT`] per participant of a launch capped at
/// `workers` participants.
fn pieces(total: usize, workers: usize) -> Vec<Range<usize>> {
    let participants = workers.min(pool::helpers() + 1);
    let len = total
        .div_ceil(participants * PIECES_PER_PARTICIPANT)
        .max(1)
        .next_multiple_of(LANES);
    (0..total).step_by(len).map(|s| s..(s + len).min(total)).collect()
}

/// Cuts `buf`, `width` floats per domain element, into one disjoint
/// slice per piece.
fn split_pieces<'a>(mut buf: &'a mut [f32], ranges: &[Range<usize>], width: usize) -> Vec<&'a mut [f32]> {
    ranges
        .iter()
        .map(|r| {
            let (head, tail) = std::mem::take(&mut buf).split_at_mut(r.len() * width);
            buf = tail;
            head
        })
        .collect()
}

/// Runs `run(i, &mut slots[i])` for every piece `i` on the caller and
/// up to `helpers` pool helpers, each claiming the next piece from an
/// atomic counter until none are left. Once a piece fails, later pieces
/// are no longer claimed; every earlier one still runs, so the error
/// returned is the lowest-index failing piece's whatever the timing.
fn claim_pieces<T: Send>(
    slots: Vec<T>,
    helpers: usize,
    run: impl Fn(usize, &mut T) -> Result<()> + Sync,
) -> Result<()> {
    let slots: Vec<Mutex<T>> = slots.into_iter().map(Mutex::new).collect();
    // Both counters publish no data (each slot and the failure sit
    // behind their own mutex), so they are Relaxed. `first_failed` only
    // ever holds a failing piece's index, so a stale read merely runs a
    // piece that could have been skipped.
    let next = AtomicUsize::new(0);
    let first_failed = AtomicUsize::new(usize::MAX);
    let failure: Mutex<Option<(usize, BrookError)>> = Mutex::new(None);
    pool::broadcast(helpers, &|| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= slots.len() || i > first_failed.load(Ordering::Relaxed) {
            return;
        }
        let mut slot = slots[i].lock().expect("each piece is claimed once");
        if let Err(e) = run(i, &mut slot) {
            first_failed.fetch_min(i, Ordering::Relaxed);
            let mut failure = failure.lock().expect("nothing panics holding the failure");
            if failure.as_ref().is_none_or(|(j, _)| i < *j) {
                *failure = Some((i, e));
            }
        }
    })?;
    match failure.into_inner().expect("nothing panics holding the failure") {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// Runs a launch over `domain_shape` on the caller and up to
/// `workers − 1` pool helpers. Output buffers are pre-split into
/// per-piece slices so participants never share mutable state, and
/// each piece runs the serial backend's engine choice
/// (`cpu::ir_run_range`) over its disjoint range in the claiming
/// thread's slab frame — bit-exact with the serial IR backend for any
/// participant count. Pieces are `LANES`-aligned, so the lane engines
/// iterate whole register slabs and only the final piece sees a
/// remainder block.
#[allow(clippy::too_many_arguments)]
fn run_parallel_ir(
    kernel: &IrKernel,
    lane: Option<&brook_ir::lanes::LaneKernel>,
    tier: Option<&brook_ir::tier::TierKernel>,
    bindings: &[ir_interp::Binding<'_>],
    outputs: &mut [Vec<f32>],
    domain_shape: &[usize],
    workers: usize,
) -> Result<()> {
    let (dx, dy, _) = ir_interp::domain_extents(domain_shape);
    let total = dx * dy;
    if total == 0 {
        return Ok(());
    }
    let ranges = pieces(total, workers);
    let mut per_piece: Vec<Vec<&mut [f32]>> = ranges.iter().map(|_| Vec::new()).collect();
    for buf in outputs.iter_mut() {
        debug_assert!(buf.len().is_multiple_of(total));
        let width = buf.len() / total;
        for (outs, slice) in per_piece.iter_mut().zip(split_pieces(buf, &ranges, width)) {
            outs.push(slice);
        }
    }
    claim_pieces(per_piece, workers - 1, |i, outs| {
        FRAME.with_borrow_mut(|slabs| {
            cpu::ir_run_range(
                slabs,
                kernel,
                lane,
                tier,
                bindings,
                outs,
                domain_shape,
                ranges[i].clone(),
            )
        })
    })
}

impl BackendExecutor for ParallelCpuBackend {
    fn name(&self) -> &'static str {
        "cpu-parallel"
    }

    fn create_stream(&mut self, desc: StreamDesc) -> Result<usize> {
        cpu::host_create_stream(&mut self.streams, desc)
    }

    fn stream_desc(&self, index: usize) -> &StreamDesc {
        &self.streams[index].0
    }

    fn write_stream(&mut self, index: usize, values: &[f32]) -> Result<()> {
        cpu::host_write_stream(&mut self.streams, index, values)
    }

    fn read_stream(&mut self, index: usize) -> Result<Vec<f32>> {
        Ok(self.streams[index].1.clone())
    }

    fn dispatch(&mut self, launch: &KernelLaunch<'_>) -> Result<()> {
        let domain_shape = self.streams[launch.outputs[0].1].0.shape.clone();
        let (dx, dy, _) = cpu::domain_extents(&domain_shape);
        // Chunked output slicing assumes every output spans the whole
        // domain; kernels with shape-mismatched extra outputs (none in
        // the app suite, but expressible) run serially.
        let uniform = launch
            .outputs
            .iter()
            .all(|(_, i)| self.streams[*i].0.shape == domain_shape);
        let workers = self.workers;
        let kernel = ir_kernel(launch.ir, launch.kernel)?;
        let lane = launch.lanes.kernel(launch.kernel);
        let tier = launch.tiers.kernel(launch.kernel);
        if self.parallelizable(dx * dy, uniform) {
            cpu::dispatch_ir_on_host(&mut self.streams, launch, kernel, |k, bindings, outs, domain| {
                run_parallel_ir(k, lane, tier, bindings, outs, domain, workers)
            })
        } else {
            cpu::dispatch_ir_on_host(&mut self.streams, launch, kernel, |k, bindings, outs, domain| {
                FRAME.with_borrow_mut(|slabs| cpu::ir_run_full(slabs, k, lane, tier, bindings, outs, domain))
            })
        }
    }

    fn reduce(
        &mut self,
        _checked: &CheckedProgram,
        ir: &brook_ir::IrProgram,
        kernel: &str,
        _op: ReduceOp,
        simd: Option<&brook_ir::simd::ReduceKernel>,
        input: usize,
    ) -> Result<f32> {
        let k = ir_kernel(ir, kernel)?;
        // Admitted vectorized reduce: the map phase parallelizes across
        // workers over disjoint partial slices, and the combine is
        // deterministic regardless of worker timing — partials land at
        // fixed element indices and the fold walks them in index order
        // (the admission proof makes any order bitwise-equal anyway).
        // Any worker fault discards the partials and reruns the serial
        // fold for the canonical error surface.
        if let Some(rk) = simd {
            return self.reduce_vectorized(rk, k, input);
        }
        // Serial on purpose — see the module docs.
        ir_interp::run_reduce(k, &self.streams[input].1).map_err(cpu::exec_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Arg, BrookContext};

    /// Serial and parallel backends must agree bit-for-bit on a domain
    /// large enough to take the parallel path, for every worker count.
    #[test]
    fn parallel_matches_serial_bitwise() {
        let src = "kernel void f(float a<>, float k, out float o<>) {
            o = sin(a) * k + sqrt(abs(a)) - fmod(a, 3.0);
        }";
        let n = 4096; // >= PARALLEL_THRESHOLD
        let data: Vec<f32> = (0..n).map(|i| (i as f32) * 0.37 - 700.0).collect();
        let mut reference: Option<Vec<f32>> = None;
        for workers in [1usize, 2, 3, 7, 16] {
            let mut ctx = BrookContext::with_backend(
                Box::new(ParallelCpuBackend::with_workers(workers)),
                brook_cert::CertConfig::default(),
            );
            let module = ctx.compile(src).expect("compile");
            let a = ctx.stream(&[n]).expect("a");
            let o = ctx.stream(&[n]).expect("o");
            ctx.write(&a, &data).expect("write");
            ctx.run(&module, "f", &[Arg::Stream(&a), Arg::Float(2.5), Arg::Stream(&o)])
                .expect("run");
            let out = ctx.read(&o).expect("read");
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(r, &out, "worker count {workers} changed results"),
            }
        }
        // And the serial backend agrees with all of them.
        let mut ctx = BrookContext::cpu();
        let module = ctx.compile(src).expect("compile");
        let a = ctx.stream(&[n]).expect("a");
        let o = ctx.stream(&[n]).expect("o");
        ctx.write(&a, &data).expect("write");
        ctx.run(&module, "f", &[Arg::Stream(&a), Arg::Float(2.5), Arg::Stream(&o)])
            .expect("run");
        assert_eq!(ctx.read(&o).expect("read"), reference.expect("reference"));
    }

    /// 2D domains chunk across rows mid-row too; indexof must stay
    /// consistent with the serial interpreter.
    #[test]
    fn parallel_indexof_2d_matches_serial() {
        let src = "kernel void idx(float a<>, out float o<>) {
            float2 p = indexof(o);
            o = p.y * 1000.0 + p.x + a * 0.0;
        }";
        let (rows, cols) = (48usize, 32usize);
        let data = vec![0.0f32; rows * cols];
        let mut outs = Vec::new();
        for make in [
            BrookContext::cpu as fn() -> BrookContext,
            BrookContext::cpu_parallel,
        ] {
            let mut ctx = make();
            let module = ctx.compile(src).expect("compile");
            let a = ctx.stream(&[rows, cols]).expect("a");
            let o = ctx.stream(&[rows, cols]).expect("o");
            ctx.write(&a, &data).expect("write");
            ctx.run(&module, "idx", &[Arg::Stream(&a), Arg::Stream(&o)])
                .expect("run");
            outs.push(ctx.read(&o).expect("read"));
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[0][cols + 1], 1001.0, "row 1, col 1");
    }

    /// Multi-output kernels split correctly: each output buffer is carved
    /// into per-chunk slices independently.
    #[test]
    fn parallel_multi_output_matches_serial() {
        let src = "kernel void two(float a<>, out float x<>, out float y<>) {
            x = a * 2.0; y = a + 1.0;
        }";
        let n = 2000;
        let data: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        let mut all = Vec::new();
        for make in [
            BrookContext::cpu as fn() -> BrookContext,
            BrookContext::cpu_parallel,
        ] {
            let mut ctx = make();
            let module = ctx.compile(src).expect("compile");
            let a = ctx.stream(&[n]).expect("a");
            let x = ctx.stream(&[n]).expect("x");
            let y = ctx.stream(&[n]).expect("y");
            ctx.write(&a, &data).expect("write");
            ctx.run(
                &module,
                "two",
                &[Arg::Stream(&a), Arg::Stream(&x), Arg::Stream(&y)],
            )
            .expect("run");
            all.push((ctx.read(&x).expect("x"), ctx.read(&y).expect("y")));
        }
        assert_eq!(all[0], all[1]);
    }

    /// Gathers read the full input stream from every chunk.
    #[test]
    fn parallel_gather_matches_serial() {
        let src = "kernel void rev(float t[], float a<>, out float o<>) {
            float2 p = indexof(o);
            o = t[2047.0 - p.x] + a * 0.0;
        }";
        let n = 2048;
        let table: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let zeros = vec![0.0f32; n];
        let mut outs = Vec::new();
        for make in [
            BrookContext::cpu as fn() -> BrookContext,
            BrookContext::cpu_parallel,
        ] {
            let mut ctx = make();
            let module = ctx.compile(src).expect("compile");
            let t = ctx.stream(&[n]).expect("t");
            let a = ctx.stream(&[n]).expect("a");
            let o = ctx.stream(&[n]).expect("o");
            ctx.write(&t, &table).expect("write t");
            ctx.write(&a, &zeros).expect("write a");
            ctx.run(
                &module,
                "rev",
                &[Arg::Stream(&t), Arg::Stream(&a), Arg::Stream(&o)],
            )
            .expect("run");
            outs.push(ctx.read(&o).expect("read"));
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[0][0], 2047.0);
    }

    /// Reductions are bit-identical to the serial backend (serial fold by
    /// design).
    #[test]
    fn parallel_reduce_is_bit_identical() {
        let src = "reduce void sum(float a<>, reduce float r<>) { r += a; }";
        let n = 3000;
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.123).sin()).collect();
        let mut totals = Vec::new();
        for make in [
            BrookContext::cpu as fn() -> BrookContext,
            BrookContext::cpu_parallel,
        ] {
            let mut ctx = make();
            let module = ctx.compile(src).expect("compile");
            let s = ctx.stream(&[n]).expect("s");
            ctx.write(&s, &data).expect("write");
            totals.push(ctx.reduce(&module, "sum", &s).expect("reduce"));
        }
        assert_eq!(totals[0].to_bits(), totals[1].to_bits());
    }

    /// A zero-length domain produces zero pieces: no pool helper is
    /// woken, and the call succeeds with untouched (empty) outputs. The
    /// public API rejects zero-sized streams, so this pins the internal
    /// piece-splitting edge directly.
    #[test]
    fn zero_length_domain_spawns_no_workers() {
        let checked =
            brook_lang::parse_and_check("kernel void dbl(float a<>, out float o<>) { o = a * 2.0; }")
                .expect("check");
        let (ir, errors) = brook_ir::lower::lower_program(&checked);
        assert!(errors.is_empty(), "{errors:?}");
        let kernel = ir.kernel("dbl").expect("lowered");
        let shape: Vec<usize> = vec![0];
        let bindings = [
            ir_interp::Binding::Elem {
                data: &[],
                shape: &shape,
                width: 1,
            },
            ir_interp::Binding::Out(0),
        ];
        let mut outputs = vec![Vec::<f32>::new()];
        for workers in [1usize, 4, 16] {
            run_parallel_ir(kernel, None, None, &bindings, &mut outputs, &shape, workers)
                .unwrap_or_else(|e| panic!("workers={workers}: {e}"));
            assert!(outputs[0].is_empty());
        }
    }

    /// More workers than elements: trailing chunks are empty and must be
    /// filtered, and the populated chunks still tile the domain exactly.
    #[test]
    fn more_workers_than_elements_matches_serial() {
        let src = "kernel void f(float a<>, out float o<>) { o = a * 3.0 + 1.0; }";
        // 300 >= PARALLEL_THRESHOLD so the fan-out path runs; 17 workers
        // over 300 elements leaves the last chunk short.
        let n = 300;
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).cos()).collect();
        let mut serial_ctx = BrookContext::cpu();
        let module = serial_ctx.compile(src).expect("compile");
        let a = serial_ctx.stream(&[n]).expect("a");
        let o = serial_ctx.stream(&[n]).expect("o");
        serial_ctx.write(&a, &data).expect("write");
        serial_ctx
            .run(&module, "f", &[Arg::Stream(&a), Arg::Stream(&o)])
            .expect("run");
        let reference = serial_ctx.read(&o).expect("read");

        // 17 > 16 = MAX_WORKERS is reachable through with_workers, and
        // 301 workers exceed the element count outright.
        for workers in [17usize, 301] {
            let mut ctx = BrookContext::with_backend(
                Box::new(ParallelCpuBackend::with_workers(workers)),
                brook_cert::CertConfig::default(),
            );
            let module = ctx.compile(src).expect("compile");
            let a = ctx.stream(&[n]).expect("a");
            let o = ctx.stream(&[n]).expect("o");
            ctx.write(&a, &data).expect("write");
            ctx.run(&module, "f", &[Arg::Stream(&a), Arg::Stream(&o)])
                .expect("run");
            assert_eq!(ctx.read(&o).expect("read"), reference, "workers={workers}");
        }
    }

    /// The serial/parallel decision boundary: one element below
    /// `PARALLEL_THRESHOLD` takes the serial path, at and above it the
    /// fan-out path — all three bit-identical to the serial backend.
    #[test]
    fn threshold_boundary_is_bit_exact_on_both_paths() {
        let src = "kernel void f(float a<>, out float o<>) { o = sin(a) + a * 0.5; }";
        for n in [PARALLEL_THRESHOLD - 1, PARALLEL_THRESHOLD, PARALLEL_THRESHOLD + 1] {
            let data: Vec<f32> = (0..n).map(|i| i as f32 * 0.11 - 9.0).collect();
            let mut serial_ctx = BrookContext::cpu();
            let module = serial_ctx.compile(src).expect("compile");
            let a = serial_ctx.stream(&[n]).expect("a");
            let o = serial_ctx.stream(&[n]).expect("o");
            serial_ctx.write(&a, &data).expect("write");
            serial_ctx
                .run(&module, "f", &[Arg::Stream(&a), Arg::Stream(&o)])
                .expect("run");
            let reference = serial_ctx.read(&o).expect("read");

            let backend = ParallelCpuBackend::with_workers(4);
            assert_eq!(
                backend.parallelizable(n, true),
                n >= PARALLEL_THRESHOLD,
                "path selection at n={n}"
            );
            let mut ctx = BrookContext::with_backend(Box::new(backend), brook_cert::CertConfig::default());
            let module = ctx.compile(src).expect("compile");
            let a = ctx.stream(&[n]).expect("a");
            let o = ctx.stream(&[n]).expect("o");
            ctx.write(&a, &data).expect("write");
            ctx.run(&module, "f", &[Arg::Stream(&a), Arg::Stream(&o)])
                .expect("run");
            let out = ctx.read(&o).expect("read");
            assert_eq!(out.len(), reference.len());
            for (i, (r, p)) in reference.iter().zip(&out).enumerate() {
                assert_eq!(r.to_bits(), p.to_bits(), "n={n} element {i}");
            }
        }
    }

    /// Errors inside worker chunks surface as errors, not hangs or
    /// poisoned state.
    #[test]
    fn worker_errors_propagate() {
        // An unbounded loop trips the per-element iteration budget inside
        // the workers; certification is disabled to let it compile.
        let mut ctx = BrookContext::cpu_parallel();
        ctx.enforce_certification = false;
        let module = ctx
            .compile("kernel void spin(float a<>, out float o<>) { float s = a + 1.0; while (s > 0.0) { s += 1.0; } o = s; }")
            .expect("compile (uncertified)");
        let n = 1024;
        let a = ctx.stream(&[n]).expect("a");
        let o = ctx.stream(&[n]).expect("o");
        ctx.write(&a, &vec![1.0; n]).expect("write");
        let err = ctx
            .run(&module, "spin", &[Arg::Stream(&a), Arg::Stream(&o)])
            .expect_err("must fail");
        assert!(
            err.to_string().contains("iteration budget"),
            "unexpected error: {err}"
        );
        // The context stays usable after the failed dispatch.
        assert_eq!(ctx.read(&a).expect("read"), vec![1.0; n]);
    }

    /// Under dynamic claiming the error is still the serial backend's,
    /// text for text: two elements in different pieces trip the
    /// iteration budget, and the later piece reaches its fault first in
    /// time (its other elements finish at once) but does not win.
    #[test]
    fn first_failing_piece_gives_the_serial_error() {
        // Elements 300 and 3000 spin until the budget trips. Elements
        // 290..300 share element 300's piece for any piece length and
        // first count to four million between them, about a budget's
        // worth, so the piece holding element 3000 (every other element
        // costs nothing) faults first in time. A launch that kept the
        // first error in time would report element 3000.
        let src = "kernel void spin(float a<>, out float o<>) {
            float s = a;
            if (a > 0.5) { while (s > 0.0) { s += 1.0; } }
            if (a < -0.5) { int i; for (i = 0; i < 400000; i++) { s = s + 1.0; } }
            o = s;
        }";
        let n = 4096;
        let data: Vec<f32> = (0..n)
            .map(|i| match i {
                300 | 3000 => 1.0,
                290..300 => -1.0,
                _ => 0.0,
            })
            .collect();
        let error_on = |mut ctx: BrookContext| -> String {
            ctx.enforce_certification = false;
            let module = ctx.compile(src).expect("compile (uncertified)");
            let a = ctx.stream(&[n]).expect("a");
            let o = ctx.stream(&[n]).expect("o");
            ctx.write(&a, &data).expect("write");
            ctx.run(&module, "spin", &[Arg::Stream(&a), Arg::Stream(&o)])
                .expect_err("must fail")
                .to_string()
        };
        let serial = error_on(BrookContext::cpu());
        assert!(serial.contains("iteration budget"), "unexpected error: {serial}");
        assert_eq!(error_on(BrookContext::cpu_parallel()), serial);
    }

    /// The Tier-2 closure chain runs inside every worker with its own
    /// reused slab frame; a degenerate single worker and an
    /// over-subscribed seventeen must stay bit-exact (branchy, loopy
    /// kernel so divergence crosses chunk boundaries).
    #[test]
    fn tier_workers_one_and_seventeen_bit_exact() {
        let src = "kernel void f(float a<>, out float o<>) {
            float s = a * 0.5 + 0.25;
            int i;
            for (i = 0; i < 24; i++) {
                if (s < 10.0) { s = s * 1.5 + 1.0; } else { s = s - 7.75; }
            }
            o = s * 2.0 + a;
        }";
        let n = 4096; // >= PARALLEL_THRESHOLD
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.83) % 37.0).collect();
        let mut results = Vec::new();
        for workers in [1usize, 17] {
            let mut ctx = BrookContext::with_backend(
                Box::new(ParallelCpuBackend::with_workers(workers)),
                brook_cert::CertConfig::default(),
            );
            let module = ctx.compile(src).expect("compile");
            assert!(
                module
                    .report
                    .tier_plans
                    .iter()
                    .any(|t| t.kernel == "f" && t.compiled),
                "kernel must be tier-admitted for this test to cover Tier-2"
            );
            let a = ctx.stream(&[n]).expect("a");
            let o = ctx.stream(&[n]).expect("o");
            ctx.write(&a, &data).expect("write");
            ctx.run(&module, "f", &[Arg::Stream(&a), Arg::Stream(&o)])
                .expect("run");
            results.push(ctx.read(&o).expect("read"));
        }
        let bits = |v: &Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&results[0]),
            bits(&results[1]),
            "worker count changed results"
        );
    }
}
