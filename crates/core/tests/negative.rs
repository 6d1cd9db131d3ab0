//! Negative-path validation of `BrookContext`: every misuse must fail
//! with the *same, specific* `BrookError` variant on every registered
//! backend — a clean `Usage`/`Certification` error, never a
//! backend-dependent panic, GL fault or silent wrong answer. This is the
//! runtime half of the certification story: the static gate rejects bad
//! programs, the context rejects bad launches.

use brook_auto::{registered_backends, Arg, BrookContext, BrookError, DeviceProfile};

const ADD: &str = "kernel void add(float a<>, float b<>, out float c<>) { c = a + b; }";
const SAXPY: &str = "kernel void saxpy(float x<>, float alpha, out float r<>) { r = alpha * x; }";
const SUM: &str = "reduce void sum(float a<>, reduce float r<>) { r += a; }";

fn all_contexts() -> Vec<BrookContext> {
    registered_backends().iter().map(|b| (b.make)()).collect()
}

/// Asserts the error is the `Usage` variant, tagged with the backend.
fn assert_usage(err: BrookError, backend: &str, what: &str) {
    assert!(
        matches!(err, BrookError::Usage(_)),
        "{backend}: {what}: expected BrookError::Usage, got: {err}"
    );
}

#[test]
fn too_few_arguments_rejected_everywhere() {
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(ADD).unwrap();
        let a = ctx.stream(&[4]).unwrap();
        let c = ctx.stream(&[4]).unwrap();
        let err = ctx
            .run(&module, "add", &[Arg::Stream(&a), Arg::Stream(&c)])
            .unwrap_err();
        assert_usage(err, name, "2 args for 3 params");
    }
}

#[test]
fn too_many_arguments_rejected_everywhere() {
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(ADD).unwrap();
        let a = ctx.stream(&[4]).unwrap();
        let b = ctx.stream(&[4]).unwrap();
        let c = ctx.stream(&[4]).unwrap();
        let err = ctx
            .run(
                &module,
                "add",
                &[Arg::Stream(&a), Arg::Stream(&b), Arg::Stream(&c), Arg::Float(1.0)],
            )
            .unwrap_err();
        assert_usage(err, name, "4 args for 3 params");
    }
}

#[test]
fn stream_passed_for_scalar_parameter_rejected_everywhere() {
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(SAXPY).unwrap();
        let x = ctx.stream(&[4]).unwrap();
        let bogus = ctx.stream(&[4]).unwrap();
        let r = ctx.stream(&[4]).unwrap();
        let err = ctx
            .run(
                &module,
                "saxpy",
                &[Arg::Stream(&x), Arg::Stream(&bogus), Arg::Stream(&r)],
            )
            .unwrap_err();
        assert_usage(err, name, "stream bound to scalar param");
    }
}

#[test]
fn scalar_passed_for_stream_parameter_rejected_everywhere() {
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(ADD).unwrap();
        let b = ctx.stream(&[4]).unwrap();
        let c = ctx.stream(&[4]).unwrap();
        let err = ctx
            .run(
                &module,
                "add",
                &[Arg::Float(1.0), Arg::Stream(&b), Arg::Stream(&c)],
            )
            .unwrap_err();
        assert_usage(err, name, "scalar bound to stream param");
    }
}

#[test]
fn scalar_width_mismatch_rejected_everywhere() {
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(SAXPY).unwrap();
        let x = ctx.stream(&[4]).unwrap();
        let r = ctx.stream(&[4]).unwrap();
        let err = ctx
            .run(
                &module,
                "saxpy",
                &[Arg::Stream(&x), Arg::Float4([1.0; 4]), Arg::Stream(&r)],
            )
            .unwrap_err();
        assert_usage(err, name, "float4 for float scalar");
    }
}

#[test]
fn unknown_kernel_rejected_everywhere() {
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(ADD).unwrap();
        let err = ctx.run(&module, "nonsense", &[]).unwrap_err();
        assert_usage(err, name, "unknown kernel name");
    }
}

#[test]
fn run_on_reduce_kernel_rejected_everywhere() {
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(SUM).unwrap();
        let a = ctx.stream(&[4]).unwrap();
        let r = ctx.stream(&[1]).unwrap();
        let err = ctx
            .run(&module, "sum", &[Arg::Stream(&a), Arg::Stream(&r)])
            .unwrap_err();
        assert_usage(err, name, "run() on a reduce kernel");
    }
}

#[test]
fn reduce_on_map_kernel_rejected_everywhere() {
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(ADD).unwrap();
        let a = ctx.stream(&[4]).unwrap();
        let err = ctx.reduce(&module, "add", &a).unwrap_err();
        assert_usage(err, name, "reduce() on a map kernel");
    }
}

#[test]
fn in_place_kernel_rejected_everywhere() {
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(ADD).unwrap();
        let a = ctx.stream(&[4]).unwrap();
        let b = ctx.stream(&[4]).unwrap();
        ctx.write(&a, &[0.0; 4]).unwrap();
        ctx.write(&b, &[0.0; 4]).unwrap();
        let err = ctx
            .run(
                &module,
                "add",
                &[Arg::Stream(&a), Arg::Stream(&b), Arg::Stream(&a)],
            )
            .unwrap_err();
        assert_usage(err, name, "output aliases an input");
    }
}

#[test]
fn gather_aliasing_output_rejected_everywhere() {
    let src = "kernel void g(float t[], float i<>, out float o<>) { o = t[int(i)]; }";
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(src).unwrap();
        let t = ctx.stream(&[4]).unwrap();
        let i = ctx.stream(&[4]).unwrap();
        ctx.write(&t, &[0.0; 4]).unwrap();
        ctx.write(&i, &[0.0; 4]).unwrap();
        let err = ctx
            .run(&module, "g", &[Arg::Stream(&t), Arg::Stream(&i), Arg::Stream(&t)])
            .unwrap_err();
        assert_usage(err, name, "output aliases a gather");
    }
}

#[test]
fn gather_rank_mismatch_rejected_everywhere() {
    // A rank-2 gather bound to a 1-D stream (and vice versa) has no
    // consistent cross-backend index translation; the context must
    // refuse the binding instead of letting backends disagree.
    let rank2 = "kernel void g(float t[][], float i<>, out float o<>) { o = t[int(i)][0]; }";
    let rank1 = "kernel void g(float t[], float i<>, out float o<>) { o = t[int(i)]; }";
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(rank2).unwrap();
        let t = ctx.stream(&[10]).unwrap(); // 1-D stream for a 2-D gather
        let i = ctx.stream(&[4]).unwrap();
        let o = ctx.stream(&[4]).unwrap();
        let err = ctx
            .run(&module, "g", &[Arg::Stream(&t), Arg::Stream(&i), Arg::Stream(&o)])
            .unwrap_err();
        assert_usage(err, name, "rank-2 gather bound to 1-D stream");

        let module = ctx.compile(rank1).unwrap();
        let t2 = ctx.stream(&[3, 5]).unwrap(); // 2-D stream for a 1-D gather
        let err = ctx
            .run(
                &module,
                "g",
                &[Arg::Stream(&t2), Arg::Stream(&i), Arg::Stream(&o)],
            )
            .unwrap_err();
        assert_usage(err, name, "rank-1 gather bound to 2-D stream");
    }
}

#[test]
fn duplicate_output_streams_rejected_everywhere() {
    let src = "kernel void two(float a<>, out float x<>, out float y<>) { x = a; y = a + 1.0; }";
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(src).unwrap();
        let a = ctx.stream(&[4]).unwrap();
        let o = ctx.stream(&[4]).unwrap();
        ctx.write(&a, &[0.0; 4]).unwrap();
        let err = ctx
            .run(
                &module,
                "two",
                &[Arg::Stream(&a), Arg::Stream(&o), Arg::Stream(&o)],
            )
            .unwrap_err();
        assert_usage(err, name, "same stream bound to two outputs");
    }
}

#[test]
fn foreign_stream_rejected_everywhere() {
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(ADD).unwrap();
        let mut other = BrookContext::cpu();
        let foreign = other.stream(&[4]).unwrap();
        let b = ctx.stream(&[4]).unwrap();
        let c = ctx.stream(&[4]).unwrap();
        let err = ctx
            .run(
                &module,
                "add",
                &[Arg::Stream(&foreign), Arg::Stream(&b), Arg::Stream(&c)],
            )
            .unwrap_err();
        assert_usage(err, name, "stream from another context");
    }
}

#[test]
fn wrong_size_write_rejected_everywhere() {
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let s = ctx.stream(&[8]).unwrap();
        let err = ctx.write(&s, &[1.0, 2.0]).unwrap_err();
        assert_usage(err, name, "2 values into an 8-element stream");
    }
}

#[test]
fn noncompliant_program_yields_certification_variant_everywhere() {
    let src = "kernel void f(float a<>, out float o<>) {
        float s = 0.0;
        while (s < 10.0) { s += a; }
        o = s;
    }";
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let err = ctx.compile(src).unwrap_err();
        match err {
            BrookError::Certification(report) => {
                assert!(
                    report.violation_count() >= 1,
                    "{name}: report must carry the violations"
                );
            }
            other => panic!("{name}: expected Certification, got: {other}"),
        }
    }
}

#[test]
fn front_end_error_yields_frontend_variant_everywhere() {
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let err = ctx.compile("kernel void broken(float a<> { }").unwrap_err();
        assert!(
            matches!(err, BrookError::FrontEnd(_)),
            "{name}: expected FrontEnd, got: {err}"
        );
    }
}

/// `Arg::Float` for an `int` parameter must be an exact integral value
/// in `i32` range — `Arg::Float(2.9)` used to truncate silently to `2`.
#[test]
fn non_integral_float_for_int_scalar_rejected_everywhere() {
    let src = "kernel void scl(float a<>, int n, out float o<>) { o = a * float(n); }";
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(src).unwrap();
        let a = ctx.stream(&[4]).unwrap();
        let o = ctx.stream(&[4]).unwrap();
        ctx.write(&a, &[1.0, 2.0, 3.0, 4.0]).unwrap();

        // Exact integral values convert.
        ctx.run(
            &module,
            "scl",
            &[Arg::Stream(&a), Arg::Float(2.0), Arg::Stream(&o)],
        )
        .unwrap_or_else(|e| panic!("{name}: Float(2.0) must convert: {e}"));
        assert_eq!(ctx.read(&o).unwrap(), vec![2.0, 4.0, 6.0, 8.0], "{name}");

        // Fractional values are an error, not a truncation.
        let err = ctx
            .run(
                &module,
                "scl",
                &[Arg::Stream(&a), Arg::Float(2.5), Arg::Stream(&o)],
            )
            .unwrap_err();
        assert_usage(err, name, "Float(2.5) for int param");

        // i32::MIN is exactly representable in f32 and accepted...
        ctx.run(
            &module,
            "scl",
            &[Arg::Stream(&a), Arg::Float(-2147483648.0), Arg::Stream(&o)],
        )
        .unwrap_or_else(|e| panic!("{name}: Float(i32::MIN) must convert: {e}"));

        // ...but 2^31 (what `i32::MAX as f32` rounds to) is out of range
        // and used to saturate silently.
        let err = ctx
            .run(
                &module,
                "scl",
                &[Arg::Stream(&a), Arg::Float(2147483648.0), Arg::Stream(&o)],
            )
            .unwrap_err();
        assert_usage(err, name, "Float(2^31) for int param");

        // Non-finite values cannot name an integer at all.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = ctx
                .run(
                    &module,
                    "scl",
                    &[Arg::Stream(&a), Arg::Float(bad), Arg::Stream(&o)],
                )
                .unwrap_err();
            assert_usage(err, name, &format!("Float({bad}) for int param"));
        }
    }
}

/// `Arg::Int` remains the precise path for int parameters, including
/// both `i32` extremes.
#[test]
fn int_argument_edges_accepted_everywhere() {
    let src = "kernel void pick(float a<>, int n, out float o<>) {
        o = (n < 0) ? (a - 1.0) : (a + 1.0);
    }";
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(src).unwrap();
        let a = ctx.stream(&[2]).unwrap();
        let o = ctx.stream(&[2]).unwrap();
        ctx.write(&a, &[5.0, 6.0]).unwrap();
        ctx.run(
            &module,
            "pick",
            &[Arg::Stream(&a), Arg::Int(i32::MIN), Arg::Stream(&o)],
        )
        .unwrap_or_else(|e| panic!("{name}: Int(i32::MIN): {e}"));
        assert_eq!(ctx.read(&o).unwrap(), vec![4.0, 5.0], "{name}");
        ctx.run(
            &module,
            "pick",
            &[Arg::Stream(&a), Arg::Int(i32::MAX), Arg::Stream(&o)],
        )
        .unwrap_or_else(|e| panic!("{name}: Int(i32::MAX): {e}"));
        assert_eq!(ctx.read(&o).unwrap(), vec![6.0, 7.0], "{name}");
    }
}

/// `stream_len` routes through the foreign-stream check like
/// `read`/`write` do — it used to index another backend's stream table
/// directly, returning a wrong length or panicking out of bounds.
#[test]
fn stream_len_on_foreign_stream_rejected_everywhere() {
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let own = ctx.stream(&[6]).unwrap();
        assert_eq!(ctx.stream_len(&own).unwrap(), 6, "{name}");
        for mut other in all_contexts() {
            let foreign = other.stream(&[2, 2]).unwrap();
            let err = ctx.stream_len(&foreign).unwrap_err();
            assert_usage(err, name, "stream_len on a foreign stream");
        }
    }
}

/// An elem-stream parameter's width must match the bound stream's
/// width: a `float4` param over a `float` stream used to slice the
/// input buffer out of bounds (CPU panic) or silently truncate (GL).
#[test]
fn elem_width_mismatch_rejected_everywhere() {
    let src = "kernel void quad(float4 a<>, out float4 o<>) { o = a; }";
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(src).unwrap();
        let a = ctx.stream(&[4]).unwrap(); // width 1 for a float4 param
        let Ok(o) = ctx.stream_with_width(&[4], 4) else {
            continue; // packed storage has no width-4 streams
        };
        let err = ctx
            .run(&module, "quad", &[Arg::Stream(&a), Arg::Stream(&o)])
            .unwrap_err();
        assert_usage(err, name, "float stream bound to float4 param");
    }
}

/// Same check on the output side: a narrow output stream under a wide
/// out-param was an out-of-bounds write on the CPU engines.
#[test]
fn out_width_mismatch_rejected_everywhere() {
    let src = "kernel void widen(float a<>, out float4 o<>) { o = float4(a, a, a, a); }";
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(src).unwrap();
        let a = ctx.stream(&[4]).unwrap();
        let o = ctx.stream(&[4]).unwrap(); // width 1 for an out float4
        ctx.write(&a, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let err = ctx
            .run(&module, "widen", &[Arg::Stream(&a), Arg::Stream(&o)])
            .unwrap_err();
        assert_usage(err, name, "float stream bound to out float4 param");
    }
}

/// Gather parameters carry a width too.
#[test]
fn gather_width_mismatch_rejected_everywhere() {
    let src = "kernel void g(float4 t[], float i<>, out float o<>) { o = t[int(i)].x; }";
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(src).unwrap();
        let t = ctx.stream(&[4]).unwrap(); // width 1 for a float4 gather
        let i = ctx.stream(&[4]).unwrap();
        let o = ctx.stream(&[4]).unwrap();
        let err = ctx
            .run(&module, "g", &[Arg::Stream(&t), Arg::Stream(&i), Arg::Stream(&o)])
            .unwrap_err();
        assert_usage(err, name, "float stream bound to float4 gather");
    }
}

/// All outputs of one launch execute over a single domain (the first
/// output's shape); a smaller second output used to be written out of
/// bounds by the CPU engines.
#[test]
fn mismatched_output_shapes_rejected_everywhere() {
    let src = "kernel void two(float a<>, out float x<>, out float y<>) { x = a; y = a + 1.0; }";
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(src).unwrap();
        let a = ctx.stream(&[8]).unwrap();
        let x = ctx.stream(&[8]).unwrap();
        let y = ctx.stream(&[4]).unwrap(); // smaller than the domain
        ctx.write(&a, &[0.5; 8]).unwrap();
        let err = ctx
            .run(
                &module,
                "two",
                &[Arg::Stream(&a), Arg::Stream(&x), Arg::Stream(&y)],
            )
            .unwrap_err();
        assert_usage(err, name, "outputs with different shapes");
    }
}

/// `reduce` folds lanes differently on the host (all lanes) and the GL
/// ladder (one channel per step); a width mismatch between kernel and
/// stream is rejected instead of letting the backends diverge.
#[test]
fn reduce_width_mismatch_rejected_everywhere() {
    for mut ctx in all_contexts() {
        let name = ctx.backend_name();
        let module = ctx.compile(SUM).unwrap();
        let Ok(wide) = ctx.stream_with_width(&[4], 4) else {
            continue; // packed storage has no width-4 streams
        };
        ctx.write(&wide, &[1.0; 16]).unwrap();
        let err = ctx.reduce(&module, "sum", &wide).unwrap_err();
        assert_usage(err, name, "float4 stream into a float reduce");
    }
}

/// A recursive helper violates BA004 and cannot lower to BrookIR. Even
/// with enforcement off, `compile` must reject it with the compliance
/// report — no backend may ever receive a kernel it cannot execute.
/// The kernel is never run, so where `compile` wrongly succeeds the
/// test fails cleanly instead of crashing the process.
#[test]
fn recursive_helper_rejected_at_compile_without_enforcement() {
    let src = "float twice(float x) { return twice(x); }
        kernel void k(float a<>, out float o<>) { o = twice(a); }";
    let contexts = [
        BrookContext::cpu(),
        BrookContext::cpu_parallel(),
        BrookContext::gles2(DeviceProfile::videocore_iv()),
        BrookContext::gles2(DeviceProfile::radeon_hd3400()),
    ];
    for mut ctx in contexts {
        ctx.enforce_certification = false;
        let name = ctx.backend_name();
        match ctx.compile(src) {
            Err(BrookError::Certification(report)) => assert!(
                report
                    .kernels
                    .iter()
                    .flat_map(|k| k.violations())
                    .any(|f| f.rule.code() == "BA004"),
                "{name}: the report must carry the BA004 error"
            ),
            Err(other) => panic!("{name}: expected BrookError::Certification, got: {other}"),
            Ok(_) => panic!("{name}: a recursive helper must not compile"),
        }
    }
}
