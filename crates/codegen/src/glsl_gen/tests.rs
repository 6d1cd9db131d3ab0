use crate::{
    generate_ir_kernel_shader, CodegenError, GeneratedShader, KernelShapes, StorageMode, StreamRank,
};
use brook_ir::lower::lower_program;
use brook_ir::IrProgram;
use brook_lang::parse_and_check;

fn lower(src: &str) -> IrProgram {
    let checked = parse_and_check(src).expect("front-end");
    let (p, errs) = lower_program(&checked);
    assert!(errs.is_empty(), "{errs:?}");
    p
}

fn gen(src: &str, kernel: &str, output: &str, shapes: KernelShapes, storage: StorageMode) -> GeneratedShader {
    generate_ir_kernel_shader(&lower(src), kernel, output, &shapes, storage)
        .unwrap_or_else(|e| panic!("codegen: {e}"))
}

#[test]
fn generates_compilable_packed_shader() {
    let g = gen(
        "kernel void add(float a<>, float b<>, out float c<>) { c = a + b; }",
        "add",
        "c",
        KernelShapes::default(),
        StorageMode::Packed,
    );
    assert!(g.glsl.contains("ba_decode"));
    assert!(g.glsl.contains("ba_encode"));
    assert_eq!(g.samplers, vec!["a", "b"]);
    glsl_es::compile(&g.glsl).unwrap_or_else(|e| panic!("generated GLSL does not compile: {e}\n{}", g.glsl));
}

#[test]
fn generates_compilable_native_shader() {
    let g = gen(
        "kernel void scale(float4 a<>, float k, out float4 o<>) { o = a * k; }",
        "scale",
        "o",
        KernelShapes::default(),
        StorageMode::Native,
    );
    assert!(!g.glsl.contains("ba_decode"));
    assert_eq!(g.scalars, vec!["k"]);
    glsl_es::compile(&g.glsl).unwrap_or_else(|e| panic!("generated GLSL does not compile: {e}\n{}", g.glsl));
}

#[test]
fn vector_stream_rejected_on_packed() {
    let p = lower("kernel void f(float4 a<>, out float4 o<>) { o = a; }");
    let err =
        generate_ir_kernel_shader(&p, "f", "o", &KernelShapes::default(), StorageMode::Packed).unwrap_err();
    assert!(matches!(err, CodegenError::VectorStreamOnPackedTarget { .. }));
}

#[test]
fn indexof_grid_uses_meta() {
    let g = gen(
        "kernel void f(float a<>, out float o<>) { float2 i = indexof(o); o = i.x + i.y; }",
        "f",
        "o",
        KernelShapes::default(),
        StorageMode::Packed,
    );
    assert!(g.glsl.contains("_pc"), "{}", g.glsl);
    glsl_es::compile(&g.glsl).unwrap();
}

#[test]
fn indexof_linear_uses_lin() {
    let shapes = KernelShapes::default()
        .with("o", StreamRank::Linear)
        .with("a", StreamRank::Linear);
    let g = gen(
        "kernel void f(float a<>, out float o<>) { o = indexof(o).x; }",
        "f",
        "o",
        shapes,
        StorageMode::Packed,
    );
    assert!(g.glsl.contains("_lin"), "{}", g.glsl);
    glsl_es::compile(&g.glsl).unwrap();
}

#[test]
fn gather_rank2_generates_direct_fetch() {
    let g = gen(
        "kernel void f(float m[][], float v<>, out float o<>) { o = m[1][2] * v; }",
        "f",
        "o",
        KernelShapes::default(),
        StorageMode::Packed,
    );
    assert!(g.glsl.contains("(vec2(_i1, _i0)"), "{}", g.glsl);
    assert!(g.glsl.contains("_gather_m("), "{}", g.glsl);
    glsl_es::compile(&g.glsl).unwrap();
}

#[test]
fn gather_rank1_uses_linear_translation() {
    let g = gen(
        "kernel void f(float v[], float i<>, out float o<>) { o = v[int(i)]; }",
        "f",
        "o",
        KernelShapes::default(),
        StorageMode::Packed,
    );
    assert!(g.glsl.contains("floor(_l / _meta_v.x)"), "{}", g.glsl);
    glsl_es::compile(&g.glsl).unwrap();
}

#[test]
fn rank3_gather_needs_shape_uniform() {
    let g = gen(
        "kernel void f(float v[][][], float i<>, out float o<>) { o = v[0][1][2]; }",
        "f",
        "o",
        KernelShapes::default(),
        StorageMode::Packed,
    );
    assert!(g.shapes_needed.contains(&"v".to_string()));
    assert!(g.glsl.contains("_shape_v"));
    glsl_es::compile(&g.glsl).unwrap();
}

#[test]
fn for_loop_translates() {
    let g = gen(
        "kernel void f(float a<>, out float o<>) {
            float s = 0.0;
            int i;
            for (i = 0; i < 8; i++) { s += a; }
            o = s;
        }",
        "f",
        "o",
        KernelShapes::default(),
        StorageMode::Packed,
    );
    // GLSL ES 1.00 (Appendix A) has no `while`: the loop runs as one
    // gated `for` whose body still tests the source bound.
    assert_eq!(g.glsl.matches("for (").count(), 1, "{}", g.glsl);
    assert!(!g.glsl.contains("while"), "{}", g.glsl);
    assert!(g.glsl.contains(" = 8;"), "{}", g.glsl);
    glsl_es::compile(&g.glsl).unwrap();
}

#[test]
fn int_promotion_inserts_casts() {
    let g = gen(
        "kernel void f(float a<>, out float o<>) { int i; i = 3; o = a + i; }",
        "f",
        "o",
        KernelShapes::default(),
        StorageMode::Packed,
    );
    assert!(g.glsl.contains("float(_r"), "{}", g.glsl);
    glsl_es::compile(&g.glsl).unwrap();
}

#[test]
fn int_remainder_lowered_without_percent() {
    let g = gen(
        "kernel void f(float a<>, out float o<>) { int i; i = 7; int j; j = i % 3; o = a + j; }",
        "f",
        "o",
        KernelShapes::default(),
        StorageMode::Packed,
    );
    assert!(!g.glsl.contains('%'), "{}", g.glsl);
    glsl_es::compile(&g.glsl).unwrap();
}

#[test]
fn multi_output_kernel_generates_one_shader_per_output() {
    let src =
        "kernel void fw(float d<>, out float dist<>, out float pred<>) { dist = d * 2.0; pred = d + 1.0; }";
    let g1 = gen(src, "fw", "dist", KernelShapes::default(), StorageMode::Packed);
    let g2 = gen(src, "fw", "pred", KernelShapes::default(), StorageMode::Packed);
    assert!(g1.glsl.contains("ba_encode(_out_dist)"));
    assert!(g2.glsl.contains("ba_encode(_out_pred)"));
    glsl_es::compile(&g1.glsl).unwrap();
    glsl_es::compile(&g2.glsl).unwrap();
}

#[test]
fn helper_functions_translated() {
    let g = gen(
        "float sq(float x) { return x * x; }
         kernel void f(float a<>, out float o<>) { o = sq(a) + sq(2.0); }",
        "f",
        "o",
        KernelShapes::default(),
        StorageMode::Packed,
    );
    // No GLSL function for the helper: its body arrives inlined once per call.
    assert!(!g.glsl.contains("b_sq"), "{}", g.glsl);
    let main = &g.glsl[g.glsl.find("void main()").unwrap()..];
    let products = main
        .lines()
        .filter(|l| l.trim_start().starts_with("_r") && l.contains(" * "))
        .count();
    assert_eq!(products, 2, "{}", g.glsl);
    glsl_es::compile(&g.glsl).unwrap();
}

#[test]
fn builtin_renames_applied() {
    let g = gen(
        "kernel void f(float a<>, out float o<>) { o = lerp(a, 1.0, 0.5) + rsqrt(a) + fmod(a, 2.0) + saturate(a) + round(a); }",
        "f",
        "o",
        KernelShapes::default(),
        StorageMode::Packed,
    );
    assert!(g.glsl.contains("mix("));
    assert!(g.glsl.contains("inversesqrt("));
    assert!(g.glsl.contains("clamp("));
    assert!(!g.glsl.contains("lerp("));
    glsl_es::compile(&g.glsl).unwrap();
}

#[test]
fn unknown_kernel_and_output_rejected() {
    let p = lower("kernel void f(float a<>, out float o<>) { o = a; }");
    let shapes = KernelShapes::default();
    assert!(matches!(
        generate_ir_kernel_shader(&p, "nope", "o", &shapes, StorageMode::Packed),
        Err(CodegenError::UnknownKernel(_))
    ));
    assert!(matches!(
        generate_ir_kernel_shader(&p, "f", "nope", &shapes, StorageMode::Packed),
        Err(CodegenError::UnknownOutput(_))
    ));
}

#[test]
fn reduce_kernel_rejected_here() {
    let p = lower("reduce void s(float a<>, reduce float r<>) { r += a; }");
    let err =
        generate_ir_kernel_shader(&p, "s", "r", &KernelShapes::default(), StorageMode::Packed).unwrap_err();
    assert!(matches!(err, CodegenError::Unsupported(_)));
}
