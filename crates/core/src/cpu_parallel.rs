//! The data-parallel CPU backend: Brook's "every output element is
//! independent" guarantee, cashed in on multi-core hosts.
//!
//! Brook kernels are forbidden from communicating between elements (no
//! shared mutable state, no scatter), which is the paper's certification
//! argument *and* a parallelization licence: the output domain can be
//! split into contiguous chunks evaluated on worker threads with zero
//! synchronization beyond the final join. Each worker runs the same
//! IR engines as [`crate::cpu::CpuBackend`] over a disjoint domain range,
//! writing into a disjoint slice of each output buffer, so results are
//! **bit-identical** to the serial backend no matter how many workers
//! run.
//!
//! Reductions stay serial by default: a chunked tree fold would change
//! the floating-point association order and break bit-equality with
//! the reference backend, which the differential-test layer asserts.
//! The one exception is the **admitted vectorized reduce path**
//! (`brook_ir::simd::ReduceKernel`): its admission proof (NaN-free,
//! sign-definite `min`/`max` operands) makes the combine a lattice
//! operation whose result is one unique bit pattern under *any*
//! association, so the map phase parallelizes across workers and the
//! fold stays bit-identical to the serial backend by construction.

use crate::backend::{ir_kernel, BackendExecutor, KernelLaunch};
use crate::cpu;
use crate::error::{BrookError, Result};
use crate::stream::StreamDesc;
use brook_ir::interp as ir_interp;
use brook_ir::IrKernel;
use brook_lang::{CheckedProgram, ReduceOp};
use std::ops::Range;

/// Below this many output elements the thread fan-out costs more than it
/// saves; dispatches run serially on the calling thread through
/// `ir_run_full` (Tier-2 when the kernel was admitted, else the lane
/// engine, else the scalar interpreter).
pub const PARALLEL_THRESHOLD: usize = 256;

/// Upper bound on worker threads (beyond this the interpreter is memory-
/// bound and extra workers only add scheduling noise).
const MAX_WORKERS: usize = 16;

/// The parallel CPU interpreter backend.
///
/// See the module docs for the parallel dispatch and (vectorized)
/// reduce contracts.
pub struct ParallelCpuBackend {
    streams: Vec<(StreamDesc, Vec<f32>)>,
    workers: usize,
    /// The slab frame launches below the fan-out threshold reuse.
    slabs: brook_ir::lanes::LaneSlabs,
}

impl ParallelCpuBackend {
    /// A backend using one worker per available core (capped).
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(MAX_WORKERS);
        Self::with_workers(workers)
    }

    /// A backend with an explicit worker count (`0` is clamped to 1;
    /// `1` degenerates to the serial path).
    pub fn with_workers(workers: usize) -> Self {
        ParallelCpuBackend {
            streams: Vec::new(),
            workers: workers.max(1),
            slabs: brook_ir::lanes::LaneSlabs::new(),
        }
    }

    /// The admitted vectorized reduce: per-element combine operands are
    /// produced by the map phase in parallel over disjoint slices of a
    /// fixed partials buffer, then folded in index order with the SIMD
    /// combine. Deterministic regardless of worker count or timing —
    /// and, by the admission proof, bitwise equal to the serial fold.
    /// Any worker fault discards the partials and reruns the serial
    /// fold so error surfaces stay canonical.
    fn reduce_vectorized(
        &self,
        rk: &brook_ir::simd::ReduceKernel,
        kernel: &IrKernel,
        input: usize,
    ) -> Result<f32> {
        let data = &self.streams[input].1;
        let n = data.len();
        if n < PARALLEL_THRESHOLD || self.workers == 1 {
            return brook_ir::simd::run_reduce(rk, kernel, data).map_err(cpu::exec_err);
        }
        let mut xs = vec![rk.op.identity(); n];
        let chunk = n.div_ceil(self.workers).div_ceil(brook_ir::lanes::LANES) * brook_ir::lanes::LANES;
        let ranges: Vec<Range<usize>> = (0..self.workers)
            .map(|w| (w * chunk).min(n)..((w + 1) * chunk).min(n))
            .filter(|r| !r.is_empty())
            .collect();
        let mut slices: Vec<&mut [f32]> = Vec::with_capacity(ranges.len());
        let mut rest: &mut [f32] = &mut xs;
        for r in &ranges {
            let (head, tail) = rest.split_at_mut(r.len());
            slices.push(head);
            rest = tail;
        }
        let ok = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .zip(slices)
                .map(|(range, out)| {
                    let range = range.clone();
                    scope.spawn(move || rk.run_map(data, out, n, range))
                })
                .collect();
            handles
                .into_iter()
                .all(|h| h.join().map(|r| r.is_ok()).unwrap_or(false))
        });
        if !ok {
            // Canonical error surface: the serial fold reproduces the
            // exact element attribution and message.
            return ir_interp::run_reduce(kernel, data).map_err(cpu::exec_err);
        }
        Ok(brook_ir::simd::fold(rk.op, rk.level, &xs))
    }

    /// The worker count this backend fans out to.
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

/// Runs a launch over `domain_shape`, fanning contiguous domain chunks
/// out to scoped worker threads. Output buffers are pre-split into
/// per-chunk slices so workers never share mutable state, and each
/// worker runs the flat IR engine over its disjoint range — bit-exact
/// with the serial IR backend for any worker count. When the kernel
/// carries a lane plan, each worker executes the lane engine and chunk
/// boundaries are aligned to lane-block multiples, so workers iterate
/// whole register slabs — only the final chunk sees a remainder block.
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
    let widths: Vec<usize> = outputs
        .iter()
        .map(|buf| {
            debug_assert!(buf.len().is_multiple_of(total.max(1)));
            buf.len() / total.max(1)
        })
        .collect();
    let mut chunk = total.div_ceil(workers);
    if lane.is_some() {
        chunk = chunk.div_ceil(brook_ir::lanes::LANES) * brook_ir::lanes::LANES;
    }
    let ranges: Vec<Range<usize>> = (0..workers)
        .map(|w| (w * chunk).min(total)..((w + 1) * chunk).min(total))
        .filter(|r| !r.is_empty())
        .collect();
    let mut per_chunk: Vec<Vec<&mut [f32]>> = ranges.iter().map(|_| Vec::new()).collect();
    for (oi, buf) in outputs.iter_mut().enumerate() {
        let mut rest: &mut [f32] = buf;
        for (ci, r) in ranges.iter().enumerate() {
            let (head, tail) = rest.split_at_mut(r.len() * widths[oi]);
            per_chunk[ci].push(head);
            rest = tail;
        }
    }
    let results: Vec<Result<()>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .zip(per_chunk)
            .map(|(range, mut outs)| {
                let range = range.clone();
                scope.spawn(move || match (tier, lane) {
                    // The worker's slab frame: allocated once here and
                    // reused across every block in the chunk (`_in`
                    // entry points), instead of rebuilt per dispatch.
                    (Some(tk), Some(lk)) => {
                        let mut slabs = brook_ir::lanes::LaneSlabs::new();
                        brook_ir::tier::run_kernel_range_in(
                            &mut slabs,
                            tk,
                            lk,
                            kernel,
                            bindings,
                            &mut outs,
                            domain_shape,
                            range,
                        )
                        .map_err(cpu::exec_err)
                    }
                    (None, Some(lk)) => {
                        let mut slabs = brook_ir::lanes::LaneSlabs::new();
                        brook_ir::lanes::run_kernel_range_in(
                            &mut slabs,
                            lk,
                            kernel,
                            bindings,
                            &mut outs,
                            domain_shape,
                            range,
                        )
                        .map_err(cpu::exec_err)
                    }
                    _ => ir_interp::run_kernel_range(kernel, bindings, &mut outs, domain_shape, range)
                        .map_err(cpu::exec_err),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(BrookError::Usage("parallel CPU worker panicked".into())))
            })
            .collect()
    });
    results.into_iter().collect()
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
            let slabs = &mut self.slabs;
            cpu::dispatch_ir_on_host(&mut self.streams, launch, kernel, |k, bindings, outs, domain| {
                cpu::ir_run_full(slabs, k, lane, tier, bindings, outs, domain)
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

    /// A zero-length domain produces zero chunks: every range is empty
    /// and filtered out, no worker spawns, and the call succeeds with
    /// untouched (empty) outputs. The public API rejects zero-sized
    /// streams, so this pins the internal chunking edge directly.
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
