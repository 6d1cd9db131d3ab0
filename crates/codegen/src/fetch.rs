//! Texel-fetch helpers and literal spellings for the BrookIR shader
//! generator (`ir_gen`). The golden-GLSL fixtures pin the emitted text.

use crate::names::{meta_uniform, shape_uniform, tex_uniform, VIEWPORT_UNIFORM};
use crate::{KernelShapes, StorageMode, StreamRank};
use brook_lang::ast::Type;
use std::fmt::Write;

/// Brook type -> GLSL type spelling.
pub(crate) fn glsl_type(t: Type) -> &'static str {
    use brook_lang::ast::ScalarKind;
    match (t.scalar, t.width) {
        (ScalarKind::Float, 1) => "float",
        (ScalarKind::Float, 2) => "vec2",
        (ScalarKind::Float, 3) => "vec3",
        (ScalarKind::Float, 4) => "vec4",
        (ScalarKind::Float, _) => "vec4",
        (ScalarKind::Int, _) => "int",
        (ScalarKind::Bool, _) => "bool",
    }
}

/// Raw texel fetch expression for parameter `name` at float coordinates
/// `col`/`row`, including decode in packed mode.
pub(crate) fn texel_fetch(name: &str, ty: Type, storage: StorageMode, col: &str, row: &str) -> String {
    let tex = tex_uniform(name);
    let meta = meta_uniform(name);
    let raw = format!("texture2D({tex}, (vec2({col}, {row}) + 0.5) / {meta}.xy)");
    match storage {
        StorageMode::Packed => format!("ba_decode({raw})"),
        StorageMode::Native => match ty.width {
            1 => format!("{raw}.x"),
            2 => format!("{raw}.xy"),
            3 => format!("{raw}.xyz"),
            _ => raw,
        },
    }
}

/// Emits the `_fetch_<name>` helper for an elementwise input stream.
pub(crate) fn emit_elem_fetch(
    out: &mut String,
    name: &str,
    ty: Type,
    shapes: &KernelShapes,
    storage: StorageMode,
) {
    let gty = glsl_type(ty);
    let meta = meta_uniform(name);
    match shapes.rank(name) {
        StreamRank::Grid => {
            // Proportional resampling over the stream's own logical
            // extents (exact when shapes match the output's).
            let fetch = texel_fetch(name, ty, storage, "_i.x", "_i.y");
            let _ = writeln!(
                out,
                "{gty} _fetch_{name}() {{\n    vec2 _i = floor(v_texcoord * {meta}.zw);\n    return {fetch};\n}}"
            );
        }
        StreamRank::Linear => {
            let fetch = texel_fetch(name, ty, storage, "_col", "_row");
            let _ = writeln!(
                out,
                "{gty} _fetch_{name}() {{\n    vec2 _pcf = floor(v_texcoord * {vp});\n    float _l = _pcf.y * {vp}.x + _pcf.x;\n    float _row = floor(_l / {meta}.x);\n    float _col = _l - _row * {meta}.x;\n    return {fetch};\n}}",
                vp = VIEWPORT_UNIFORM
            );
        }
    }
}

/// Emits the `_gather_<name>` helper. Out-of-range indices clamp to the
/// nearest valid element in *logical* index space, matching the CPU
/// reference interpreter and the paper's CLAMP_TO_EDGE argument (§4,
/// BA012).
///
/// With `elide` the clamps are skipped: the abstract interpreter proved
/// every gather through this parameter in bounds and the dispatcher
/// checked the proof against the bound shape and launch domain
/// (`brook_ir::eval::proven_fits_dyn`), so the clamp is dead code on
/// the hot fragment path.
pub(crate) fn emit_gather_fetch(
    out: &mut String,
    name: &str,
    ty: Type,
    rank: u8,
    shapes: &KernelShapes,
    storage: StorageMode,
    elide: bool,
) {
    let gty = glsl_type(ty);
    let meta = meta_uniform(name);
    let shape = shape_uniform(name);
    let linear_body = |linear_expr: &str, fetch: &str| {
        format!(
            "    float _l = {linear_expr};\n    float _row = floor(_l / {meta}.x);\n    float _col = _l - _row * {meta}.x;\n    return {fetch};\n"
        )
    };
    // `cl(i, hi)` clamps logical index `i` to `[0, hi]` — or passes it
    // through untouched when the clamp is proven dead.
    let cl = |i: &str, hi: String| {
        if elide {
            i.to_owned()
        } else {
            format!("clamp({i}, 0.0, {hi} - 1.0)")
        }
    };
    let fetch = texel_fetch(name, ty, storage, "_col", "_row");
    match rank {
        1 => {
            // meta.z carries the total logical length of a
            // linear-packed stream.
            let _ = writeln!(
                out,
                "{gty} _gather_{name}(float i0) {{\n    float _i0 = {};\n{}}}",
                cl("i0", format!("{meta}.z")),
                linear_body("_i0", &fetch)
            );
        }
        2 => match shapes.rank(name) {
            StreamRank::Grid => {
                let direct = texel_fetch(name, ty, storage, "_i1", "_i0");
                let _ = writeln!(
                    out,
                    "{gty} _gather_{name}(float i0, float i1) {{\n    float _i0 = {};\n    float _i1 = {};\n    return {direct};\n}}",
                    cl("i0", format!("{meta}.w")),
                    cl("i1", format!("{meta}.z"))
                );
            }
            StreamRank::Linear => {
                // Rank-2 gather over a linear-packed stream: clamp the
                // combined index to the logical length.
                let _ = writeln!(
                    out,
                    "{gty} _gather_{name}(float i0, float i1) {{\n{}}}",
                    linear_body(&cl(&format!("i0 * {meta}.z + i1"), format!("{meta}.z")), &fetch)
                );
            }
        },
        3 => {
            let _ = writeln!(
                out,
                "{gty} _gather_{name}(float i0, float i1, float i2) {{\n    float _i0 = {};\n    float _i1 = {};\n    float _i2 = {};\n{}}}",
                cl("i0", format!("{shape}.x")),
                cl("i1", format!("{shape}.y")),
                cl("i2", format!("{shape}.z")),
                linear_body(&format!("(_i0 * {shape}.y + _i1) * {shape}.z + _i2"), &fetch)
            );
        }
        _ => {
            let _ = writeln!(
                out,
                "{gty} _gather_{name}(float i0, float i1, float i2, float i3) {{\n    float _i0 = {};\n    float _i1 = {};\n    float _i2 = {};\n    float _i3 = {};\n{}}}",
                cl("i0", format!("{shape}.x")),
                cl("i1", format!("{shape}.y")),
                cl("i2", format!("{shape}.z")),
                cl("i3", format!("{shape}.w")),
                linear_body(
                    &format!("((_i0 * {shape}.y + _i1) * {shape}.z + _i2) * {shape}.w + _i3"),
                    &fetch
                )
            );
        }
    }
}

/// Zero literal for a declaration.
pub(crate) fn zero_literal(t: Type) -> String {
    use brook_lang::ast::ScalarKind;
    match (t.scalar, t.width) {
        (ScalarKind::Float, 1) => "0.0".to_owned(),
        (ScalarKind::Float, w) => format!("vec{w}(0.0)"),
        (ScalarKind::Int, _) => "0".to_owned(),
        (ScalarKind::Bool, _) => "false".to_owned(),
    }
}

/// Float literal in the generator's canonical spelling.
pub(crate) fn float_literal(v: f32) -> String {
    if v == v.trunc() && v.is_finite() && v.abs() < 1e16 {
        format!("{v:.1}")
    } else {
        format!("{v:e}")
    }
}

/// Inserts Brook's implicit conversions explicitly for GLSL.
pub(crate) fn coerce(expr: String, from: Type, to: Type) -> String {
    use brook_lang::ast::ScalarKind;
    if from == to {
        return expr;
    }
    if to.scalar == ScalarKind::Float && from.scalar == ScalarKind::Int {
        let f = format!("float({expr})");
        if to.width > 1 {
            return format!("vec{}({f})", to.width);
        }
        return f;
    }
    if to.scalar == ScalarKind::Float && from == Type::FLOAT && to.width > 1 {
        // Scalar-to-vector assignment broadcast (Brook allows it; GLSL
        // constructors splat).
        return format!("vec{}({expr})", to.width);
    }
    expr
}
