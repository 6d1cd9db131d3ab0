//! Per-builtin edge values on every engine.
//!
//! The generated campaigns keep magnitudes bounded and feed the device
//! backends no NaN, and their only `dot` is `dot(w, w)`, which is never
//! -0.0; so a builtin can differ between engines exactly where IEEE
//! arithmetic has its corners and no campaign would notice. This check
//! runs each builtin of `BUILTINS` at widths 1–4 on inputs drawn from
//! `EDGES` (signed zeros, subnormals, the extremes, infinities, NaN
//! and the round-half tie) on every spec of `edge_specs`, and compares
//! each output bitwise against the `cpu-ast` reference, any NaN equal to
//! any NaN.

use brook_auto::{Arg, BackendSpec, BrookContext};
use brook_fuzz::Matrix;
use brook_lang::builtins::{builtin, builtin_arity, builtin_result_type, Builtin, BUILTINS};

/// The edge inputs. Width-1 kernels run their whole cross product.
const EDGES: [f32; 22] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    -0.5,
    2.5,
    -2.5,
    1e-40,
    -1e-40,
    f32::MIN_POSITIVE,
    -f32::MIN_POSITIVE,
    3e38,
    -3e38,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    100.0,
    -100.0,
    1e10,
    -1e10,
    0.499_999_97,
];

/// Elements of a vector-width (2–4) edge kernel, each component drawn
/// from [`EDGES`].
const VECTOR_ELEMENTS: usize = 4096;

/// [`Matrix::default`] without `gles2-packed`: its RGBA8 storage has no
/// NaN, infinities, subnormals or vector streams, so its edge outputs
/// differ by design.
fn edge_specs() -> Vec<BackendSpec> {
    let mut specs = Matrix::default().specs;
    specs.retain(|s| s.name != "gles2-packed");
    specs
}

/// The one-builtin kernel: `o = name(a0, ..)` over `floatW` streams.
fn edge_source(b: &Builtin, w: u8) -> String {
    let params: Vec<String> = (0..builtin_arity(b))
        .map(|i| format!("float{w} a{i}<>"))
        .collect();
    let args: Vec<String> = (0..builtin_arity(b)).map(|i| format!("a{i}")).collect();
    let out = builtin_result_type(b, w).width;
    format!(
        "kernel void k({}, out float{out} o<>) {{ o = {}({}); }}",
        params.join(", "),
        b.name,
        args.join(", ")
    )
    .replace("float1", "float")
}

/// One `n * w` buffer per argument: at width 1 the cross product of
/// [`EDGES`] over the arguments, wider the components of
/// [`VECTOR_ELEMENTS`] elements drawn by a fixed hash.
fn edge_inputs(arity: usize, w: u8) -> Vec<Vec<f32>> {
    let e = EDGES.len();
    if w == 1 {
        let n = e.pow(arity as u32);
        return (0..arity)
            .map(|i| (0..n).map(|k| EDGES[k / e.pow(i as u32) % e]).collect())
            .collect();
    }
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ ((arity as u64) << 8 | u64::from(w));
    (0..arity)
        .map(|_| {
            (0..VECTOR_ELEMENTS * w as usize)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    EDGES[(state >> 33) as usize % e]
                })
                .collect()
        })
        .collect()
}

/// Runs builtin `name` at width `w` on `inputs` (one `n * w` buffer per
/// argument) on each of `specs` and returns each spec's output.
///
/// # Errors
/// An unknown builtin, or a spec that fails to compile or run it.
fn run_builtin(
    name: &str,
    w: u8,
    inputs: &[Vec<f32>],
    specs: &[BackendSpec],
) -> Result<Vec<(&'static str, Vec<f32>)>, String> {
    let b = builtin(name).ok_or_else(|| format!("unknown builtin `{name}`"))?;
    let source = edge_source(b, w);
    let n = inputs.first().map_or(0, |v| v.len() / w as usize);
    let out_w = builtin_result_type(b, w).width;
    let mut outputs = Vec::new();
    for spec in specs {
        let mut ctx: BrookContext = (spec.make)();
        let fail = |m: String| format!("{}: `{source}`: {m}", spec.name);
        let module = ctx.compile(&source).map_err(|e| fail(e.to_string()))?;
        let mut streams = Vec::new();
        for data in inputs {
            let s = ctx.stream_with_width(&[n], w).map_err(|e| fail(e.to_string()))?;
            ctx.write(&s, data).map_err(|e| fail(e.to_string()))?;
            streams.push(s);
        }
        let o = ctx
            .stream_with_width(&[n], out_w)
            .map_err(|e| fail(e.to_string()))?;
        let mut args: Vec<Arg<'_>> = streams.iter().map(Arg::Stream).collect();
        args.push(Arg::Stream(&o));
        ctx.run(&module, "k", &args).map_err(|e| fail(e.to_string()))?;
        outputs.push((spec.name, ctx.read(&o).map_err(|e| fail(e.to_string()))?));
    }
    Ok(outputs)
}

/// Runs every builtin at widths 1–4 on the edge inputs on each of
/// `specs` and compares every output bitwise against `specs[0]`, any
/// NaN equal to any NaN. Returns the runs compared, reference excluded.
///
/// # Errors
/// The first divergence (builtin, width, spec, element, inputs, bits),
/// or a spec that fails to compile or run a kernel.
fn run_builtin_edges(specs: &[BackendSpec]) -> Result<u32, String> {
    let same = |x: f32, y: f32| x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan();
    let mut runs = 0;
    for b in BUILTINS {
        for w in 1..=4u8 {
            let inputs = edge_inputs(builtin_arity(b), w);
            let outputs = run_builtin(b.name, w, &inputs, specs)?;
            let (_, reference) = &outputs[0];
            let out_w = builtin_result_type(b, w).width as usize;
            for (spec, got) in &outputs[1..] {
                if got.len() != reference.len() {
                    return Err(format!(
                        "{}/{w} on {spec}: {} outputs, reference {}",
                        b.name,
                        got.len(),
                        reference.len()
                    ));
                }
                if let Some(i) = (0..got.len()).find(|&i| !same(got[i], reference[i])) {
                    let elem = i / out_w;
                    let args: Vec<&[f32]> = inputs
                        .iter()
                        .map(|v| &v[elem * w as usize..(elem + 1) * w as usize])
                        .collect();
                    return Err(format!(
                        "{}/{w} on {spec}, element {elem} of {:?}: {:#010x} ({}), reference {:#010x} ({})",
                        b.name,
                        args,
                        got[i].to_bits(),
                        got[i],
                        reference[i].to_bits(),
                        reference[i]
                    ));
                }
                runs += 1;
            }
        }
    }
    Ok(runs)
}

/// Every builtin at widths 1–4 on IEEE edge values (signed zeros,
/// subnormals, extremes, infinities, NaN, the round-half tie) on every
/// spec but `gles2-packed`, bitwise against the AST reference with NaN
/// equal to NaN. The generated campaigns never reach these corners.
#[test]
fn builtin_edges_bitwise_on_every_engine() {
    let specs = edge_specs();
    assert_eq!(specs.len(), Matrix::default().specs.len() - 1);
    assert!(
        specs.iter().any(|s| s.name == "gles2-native"),
        "{:?}",
        specs.iter().map(|s| s.name)
    );
    let runs = run_builtin_edges(&specs).unwrap_or_else(|e| panic!("builtin edge divergence:\n{e}"));
    assert_eq!(runs as usize, BUILTINS.len() * 4 * (specs.len() - 1));
}

/// The three rules the shared builtin table fixes, pinned bit for bit
/// on every spec the edge check runs: `dot` folds from its first
/// product (so `dot(-0.0, 0.0)` is -0.0), `saturate(NaN)` is
/// `clamp(NaN, 0.0, 1.0)` = 0.0, and `sign` keeps ±0.0 (GLSL ES 1.00
/// §8.3).
#[test]
fn builtin_edge_rules_pinned_on_every_engine() {
    let specs = edge_specs();
    let check = |name: &str, w: u8, inputs: &[&[f32]], want: &[f32]| {
        let inputs: Vec<Vec<f32>> = inputs.iter().map(|v| v.to_vec()).collect();
        let outputs = run_builtin(name, w, &inputs, &specs).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(outputs.len(), specs.len());
        let want: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
        for (spec, got) in outputs {
            let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "{name}/{w} on {spec}");
        }
    };
    check("dot", 1, &[&[-0.0], &[0.0]], &[-0.0]);
    check("dot", 2, &[&[-0.0, 0.0], &[1.0, -1.0]], &[-0.0]);
    check("saturate", 1, &[&[f32::NAN, -0.5, 2.0]], &[0.0, 0.0, 1.0]);
    check("sign", 1, &[&[0.0, -0.0, 3.0, -1e-40]], &[0.0, -0.0, 1.0, -1.0]);
}
