//! Wall-clock regression benches for the substrate itself: the Brook
//! front-end + certification + code generation pipeline, the GLSL ES
//! interpreter, the simulated GL dispatch path, reductions and the
//! numerical format transformations.
//!
//! These complement the figure harnesses (which report *modeled* platform
//! time): if the simulator or compiler regresses, these catch it.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

const SGEMM_LIKE: &str = "
kernel void mm(float a[][], float b[][], out float c<>) {
    float2 p = indexof(c);
    float sum = 0.0;
    int k;
    for (k = 0; k < 64; k++) {
        sum += a[p.y][float(k)] * b[float(k)][p.x];
    }
    c = sum;
}";

fn bench_frontend(c: &mut Criterion) {
    c.bench_function("frontend/parse_check_certify", |b| {
        b.iter(|| {
            let checked = brook_lang::parse_and_check(black_box(SGEMM_LIKE)).expect("check");
            let report = brook_cert::certify(&checked, &brook_cert::CertConfig::default());
            black_box(report.is_compliant())
        })
    });
}

fn bench_codegen(c: &mut Criterion) {
    let checked = brook_lang::parse_and_check(SGEMM_LIKE).expect("check");
    let (ir, errors) = brook_ir::lower::lower_program(&checked);
    assert!(errors.is_empty(), "{errors:?}");
    let generate = |ir: &brook_ir::IrProgram| {
        brook_codegen::generate_ir_kernel_shader(
            ir,
            "mm",
            "c",
            &brook_codegen::KernelShapes::default(),
            brook_codegen::StorageMode::Packed,
        )
        .expect("codegen")
    };
    c.bench_function("codegen/generate_glsl", |b| b.iter(|| generate(black_box(&ir))));
    let generated = generate(&ir);
    c.bench_function("glsl/compile_generated_shader", |b| {
        b.iter(|| glsl_es::compile(black_box(&generated.glsl)).expect("compile"))
    });
}

fn bench_fragment_execution(c: &mut Criterion) {
    let shader = glsl_es::compile(
        "varying vec2 v_texcoord;
         void main() {
             float s = 0.0;
             for (int i = 0; i < 32; i++) { s += v_texcoord.x * 1.001; }
             gl_FragColor = vec4(s);
         }",
    )
    .expect("compile");
    let sample = |_: i32, _: f32, _: f32| [0.0f32; 4];
    c.bench_function("glsl/fragment_32_iter_loop", |b| {
        b.iter(|| {
            let env = glsl_es::FragmentEnv {
                uniforms: &[],
                varyings: &[glsl_es::Value::Vec2([0.5, 0.5])],
                sample: &sample,
            };
            glsl_es::run_fragment(black_box(&shader), &env).expect("run")
        })
    });
}

fn bench_numfmt(c: &mut Criterion) {
    let values: Vec<f32> = (0..4096).map(|i| i as f32 * 0.37 - 512.0).collect();
    c.bench_function("numfmt/encode_4096", |b| {
        b.iter(|| brook_numfmt::floats_to_texels(black_box(&values)))
    });
    let texels = brook_numfmt::floats_to_texels(&values);
    c.bench_function("numfmt/decode_4096", |b| {
        b.iter(|| brook_numfmt::texels_to_floats(black_box(&texels)))
    });
}

fn bench_dispatch(c: &mut Criterion) {
    use brook_auto::{Arg, BrookContext, DeviceProfile};
    c.bench_function("runtime/dispatch_64x64_add", |b| {
        b.iter_batched(
            || {
                let mut ctx = BrookContext::gles2(DeviceProfile::videocore_iv());
                let module = ctx
                    .compile("kernel void add(float a<>, float b<>, out float o<>) { o = a + b; }")
                    .expect("compile");
                let sa = ctx.stream(&[64, 64]).expect("stream");
                let sb = ctx.stream(&[64, 64]).expect("stream");
                let so = ctx.stream(&[64, 64]).expect("stream");
                ctx.write(&sa, &vec![1.0; 4096]).expect("write");
                ctx.write(&sb, &vec![2.0; 4096]).expect("write");
                (ctx, module, sa, sb, so)
            },
            |(mut ctx, module, sa, sb, so)| {
                ctx.run(
                    &module,
                    "add",
                    &[Arg::Stream(&sa), Arg::Stream(&sb), Arg::Stream(&so)],
                )
                .expect("run");
                ctx.read(&so).expect("read")
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_reduction(c: &mut Criterion) {
    use brook_auto::{BrookContext, DeviceProfile};
    c.bench_function("runtime/reduce_sum_128x128", |b| {
        b.iter_batched(
            || {
                let mut ctx = BrookContext::gles2(DeviceProfile::videocore_iv());
                let module = ctx
                    .compile("reduce void sum(float a<>, reduce float r<>) { r += a; }")
                    .expect("compile");
                let s = ctx.stream(&[128, 128]).expect("stream");
                ctx.write(&s, &vec![0.5; 128 * 128]).expect("write");
                (ctx, module, s)
            },
            |(mut ctx, module, s)| ctx.reduce(&module, "sum", &s).expect("reduce"),
            BatchSize::LargeInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_frontend, bench_codegen, bench_fragment_execution, bench_numfmt, bench_dispatch, bench_reduction
}
criterion_main!(benches);
