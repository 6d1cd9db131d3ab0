//! BrookIR → GLSL ES 1.00 fragment shader — the live code-generation
//! path of the GL backend.
//!
//! This emitter consumes the same [`IrProgram`] every other layer executes:
//! the shader the device runs is generated from the *optimized,
//! re-certified* IR, so what the GPU computes is exactly what the CPU
//! interpreters computed and what the certification re-check gated —
//! helper functions arrive pre-inlined, constants pre-folded, dead code
//! pre-eliminated.
//!
//! Shape of the emitted shader:
//!
//! * the uniform/sampler header and the `_fetch_*`/`_gather_*` helpers
//!   (`crate::fetch`) follow the runtime's binding contract
//!   ([`GeneratedShader`]);
//! * every live IR register becomes a `main()`-local `_r<N>` declared
//!   up front, instructions become single assignments — flat IR maps
//!   onto flat GLSL;
//! * structured regions map to structured GLSL: `If` nodes to
//!   `if/else`, loop regions to a gate-variable `for` pattern
//!   (`for (_lg = true; _lg; _lg = _lg) { <cond>; _lg = c; if (_lg) {
//!   <body> } }`) that needs no `break` — GLSL ES 1.00 has none — and
//!   preserves arbitrary (even certification-rejected) loop conditions,
//!   so unchecked-mode kernels behave as before (the simulator's
//!   runaway-loop guard still applies).

use crate::fetch::{coerce, emit_elem_fetch, emit_gather_fetch, float_literal, glsl_type, zero_literal};
use crate::names::{meta_uniform, scalar_uniform, shape_uniform, tex_uniform, VIEWPORT_UNIFORM};
use crate::{CodegenError, GeneratedShader, KernelShapes, StorageMode, StreamRank};
use brook_ir::{Inst, IrKernel, IrProgram, LoopKind, Node, Reg};
use brook_lang::ast::{AssignOp, BinOp, ParamKind, ScalarKind, Type, UnOp};
use brook_lang::builtins::BUILTINS;
use glsl_es::Value;
use std::fmt::Write;

/// Generates the fragment shader computing `output` for `kernel`, from
/// its BrookIR. Kernels with several `out` streams are compiled once
/// per output — call this once per pass (the splitting of paper §6).
///
/// # Errors
/// Unknown kernels/outputs, reduce kernels, vector streams on the
/// packed target, and constructs outside the GLSL ES subset (including
/// IR faults marked `codegen_fatal`).
pub fn generate_ir_kernel_shader(
    program: &IrProgram,
    kernel: &str,
    output: &str,
    shapes: &KernelShapes,
    storage: StorageMode,
) -> Result<GeneratedShader, CodegenError> {
    let k = program
        .kernel(kernel)
        .ok_or_else(|| CodegenError::UnknownKernel(kernel.to_owned()))?;
    if k.is_reduce {
        return Err(CodegenError::Unsupported(
            "reduce kernels compile through reduce_pass_shader".into(),
        ));
    }
    if !k
        .params
        .iter()
        .any(|p| p.name == output && p.kind == ParamKind::OutStream)
    {
        return Err(CodegenError::UnknownOutput(output.to_owned()));
    }
    let gen = IrGen {
        kernel: k,
        storage,
        shapes,
        out: output.to_owned(),
    };
    gen.generate()
}

struct IrGen<'a> {
    kernel: &'a IrKernel,
    storage: StorageMode,
    shapes: &'a KernelShapes,
    out: String,
}

impl IrGen<'_> {
    /// The `gl_FragColor` store for this pass's output — emitted at the
    /// end of `main()` *and* before every kernel-level `return;`, so an
    /// early-returning kernel keeps the output value written so far
    /// (matching the CPU interpreters, where the buffer simply retains
    /// its last store).
    fn epilogue(&self) -> String {
        let result = format!("_out_{}", self.out);
        if self.storage == StorageMode::Packed {
            return format!("gl_FragColor = ba_encode({result});");
        }
        let out_ty = self
            .kernel
            .params
            .iter()
            .find(|p| p.name == self.out)
            .expect("output validated at entry")
            .ty;
        let expanded = match out_ty.width {
            1 => format!("vec4({result}, 0.0, 0.0, 0.0)"),
            2 => format!("vec4({result}, 0.0, 0.0)"),
            3 => format!("vec4({result}, 0.0)"),
            _ => result,
        };
        format!("gl_FragColor = {expanded};")
    }
}

impl IrGen<'_> {
    fn generate(&self) -> Result<GeneratedShader, CodegenError> {
        let k = self.kernel;
        let packed = self.storage == StorageMode::Packed;
        let mut samplers = Vec::new();
        let mut scalars = Vec::new();
        let mut metas = Vec::new();
        let mut shapes_needed = Vec::new();
        let mut header = String::new();
        let _ = writeln!(header, "precision highp float;");
        let _ = writeln!(header, "varying vec2 v_texcoord;");
        let _ = writeln!(header, "uniform vec2 {VIEWPORT_UNIFORM};");
        for p in &k.params {
            match p.kind {
                ParamKind::Stream | ParamKind::Gather { .. } => {
                    if packed && p.ty.width > 1 {
                        return Err(CodegenError::VectorStreamOnPackedTarget {
                            param: p.name.clone(),
                        });
                    }
                    let _ = writeln!(header, "uniform sampler2D {};", tex_uniform(&p.name));
                    let _ = writeln!(header, "uniform vec4 {};", meta_uniform(&p.name));
                    samplers.push(p.name.clone());
                    metas.push(p.name.clone());
                    if let ParamKind::Gather { rank } = p.kind {
                        if rank >= 3 {
                            let _ = writeln!(header, "uniform vec4 {};", shape_uniform(&p.name));
                            shapes_needed.push(p.name.clone());
                        }
                    }
                }
                ParamKind::OutStream | ParamKind::ReduceOut => {
                    if packed && p.ty.width > 1 {
                        return Err(CodegenError::VectorStreamOnPackedTarget {
                            param: p.name.clone(),
                        });
                    }
                    if p.name == self.out {
                        let _ = writeln!(header, "uniform vec4 {};", meta_uniform(&p.name));
                        metas.push(p.name.clone());
                    }
                }
                ParamKind::Scalar => {
                    let _ = writeln!(header, "uniform {} {};", glsl_type(p.ty), scalar_uniform(&p.name));
                    scalars.push(p.name.clone());
                }
            }
        }
        if packed {
            header.push_str(brook_numfmt::GLSL_DECODE);
            header.push_str(brook_numfmt::GLSL_ENCODE);
        }
        // Fetch helpers for elementwise inputs and gathers.
        for p in &k.params {
            match p.kind {
                ParamKind::Stream => emit_elem_fetch(&mut header, &p.name, p.ty, self.shapes, self.storage),
                ParamKind::Gather { rank } => emit_gather_fetch(
                    &mut header,
                    &p.name,
                    p.ty,
                    rank,
                    self.shapes,
                    self.storage,
                    self.shapes.elide(&p.name),
                ),
                _ => {}
            }
        }
        // main(): position, input prefetch, output locals, register
        // frame, then the structured instruction stream.
        let mut body = String::new();
        body.push_str("void main() {\n");
        let _ = writeln!(body, "    vec2 _pc = floor(v_texcoord * {VIEWPORT_UNIFORM});");
        let _ = writeln!(body, "    float _lin = _pc.y * {VIEWPORT_UNIFORM}.x + _pc.x;");
        for p in &k.params {
            if p.kind == ParamKind::Stream {
                let _ = writeln!(
                    body,
                    "    {} b_{} = _fetch_{}();",
                    glsl_type(p.ty),
                    p.name,
                    p.name
                );
            }
        }
        for (_, p) in k.output_params() {
            let _ = writeln!(
                body,
                "    {} _out_{} = {};",
                glsl_type(p.ty),
                p.name,
                zero_literal(p.ty)
            );
        }
        // Register frame: one local per live register.
        let live = k.live_regs();
        for (r, ty) in k.regs.iter().enumerate() {
            if live[r] {
                let _ = writeln!(body, "    {} _r{r} = {};", glsl_type(*ty), zero_literal(*ty));
            }
        }
        // Loop gate variables, one per loop region.
        let n_loops = count_loops(&k.body);
        for g in 0..n_loops {
            let _ = writeln!(body, "    bool _lg{g} = true;");
        }
        let mut gate = 0usize;
        self.emit_nodes(&mut body, &k.body, 1, &mut gate)?;
        let _ = writeln!(body, "    {}", self.epilogue());
        body.push_str("}\n");
        Ok(GeneratedShader {
            glsl: format!("{header}\n{body}"),
            samplers,
            scalars,
            metas,
            shapes_needed,
            output: self.out.clone(),
        })
    }

    fn indent(out: &mut String, level: usize) {
        for _ in 0..level {
            out.push_str("    ");
        }
    }

    fn ty(&self, r: Reg) -> Type {
        self.kernel.regs[r as usize]
    }

    fn emit_nodes(
        &self,
        out: &mut String,
        nodes: &[Node],
        level: usize,
        gate: &mut usize,
    ) -> Result<(), CodegenError> {
        for n in nodes {
            match n {
                Node::Seq { start, end } => {
                    for i in *start..*end {
                        self.emit_inst(out, &self.kernel.insts[i as usize], level)?;
                    }
                }
                Node::If { cond, then, els, .. } => {
                    Self::indent(out, level);
                    let _ = writeln!(out, "if (_r{cond}) {{");
                    self.emit_nodes(out, then, level + 1, gate)?;
                    Self::indent(out, level);
                    if els.is_empty() {
                        out.push_str("}\n");
                    } else {
                        out.push_str("} else {\n");
                        self.emit_nodes(out, els, level + 1, gate)?;
                        Self::indent(out, level);
                        out.push_str("}\n");
                    }
                }
                Node::Loop(l) => {
                    let g = *gate;
                    *gate += 1;
                    Self::indent(out, level);
                    let _ = writeln!(out, "for (_lg{g} = true; _lg{g}; _lg{g} = _lg{g}) {{");
                    match l.kind {
                        LoopKind::For | LoopKind::While => {
                            self.emit_nodes(out, &l.header, level + 1, gate)?;
                            Self::indent(out, level + 1);
                            let _ = writeln!(out, "_lg{g} = _r{};", l.cond);
                            Self::indent(out, level + 1);
                            let _ = writeln!(out, "if (_lg{g}) {{");
                            self.emit_nodes(out, &l.body, level + 2, gate)?;
                            Self::indent(out, level + 1);
                            out.push_str("}\n");
                        }
                        LoopKind::DoWhile => {
                            // Body always runs, then the condition gates
                            // the next iteration.
                            self.emit_nodes(out, &l.body, level + 1, gate)?;
                            self.emit_nodes(out, &l.header, level + 1, gate)?;
                            Self::indent(out, level + 1);
                            let _ = writeln!(out, "_lg{g} = _r{};", l.cond);
                        }
                    }
                    Self::indent(out, level);
                    out.push_str("}\n");
                }
            }
        }
        Ok(())
    }

    fn emit_inst(&self, out: &mut String, inst: &Inst, level: usize) -> Result<(), CodegenError> {
        let k = self.kernel;
        let line: String = match inst {
            Inst::Nop | Inst::Jump { .. } | Inst::BranchIfFalse { .. } => return Ok(()),
            Inst::Const { dst, v } => format!("_r{dst} = {};", value_literal(v)),
            Inst::Mov { dst, src } => {
                let e = coerce(format!("_r{src}"), self.ty(*src), self.ty(*dst));
                format!("_r{dst} = {e};")
            }
            Inst::DeclInit { dst, src, ty } => {
                let e = coerce(format!("_r{src}"), self.ty(*src), *ty);
                format!("_r{dst} = {e};")
            }
            Inst::AssignLocal { dst, op, src } => {
                let e = coerce(format!("_r{src}"), self.ty(*src), self.ty(*dst));
                format!("_r{dst} {} {e};", assign_op(*op))
            }
            Inst::Bin { dst, op, lhs, rhs } => {
                let e = self.bin_expr(*op, *lhs, *rhs)?;
                format!("_r{dst} = {e};")
            }
            Inst::Un { dst, op, src } => match op {
                UnOp::Neg => format!("_r{dst} = (-_r{src});"),
                UnOp::Not => format!("_r{dst} = (!_r{src});"),
            },
            Inst::CastInt { dst, src } => format!("_r{dst} = int(_r{src});"),
            Inst::Construct { dst, width, args } => {
                let glsl = match width {
                    1 => "float",
                    2 => "vec2",
                    3 => "vec3",
                    _ => "vec4",
                };
                let parts: Vec<String> = args.iter().map(|r| format!("_r{r}")).collect();
                format!("_r{dst} = {glsl}({});", parts.join(", "))
            }
            Inst::Swizzle { dst, src, sel } => format!("_r{dst} = _r{src}.{sel};"),
            Inst::SwizzleStore { dst, op, src, sel } => {
                let target_ty = Type::float(sel.len() as u8);
                let e = coerce(format!("_r{src}"), self.ty(*src), target_ty);
                format!("_r{dst}.{sel} {} {e};", assign_op(*op))
            }
            Inst::Builtin { dst, which, args } => {
                let b = &BUILTINS[*which as usize];
                let parts: Vec<String> = args
                    .iter()
                    .map(|r| {
                        if self.ty(*r).scalar == ScalarKind::Int {
                            format!("float(_r{r})")
                        } else {
                            format!("_r{r}")
                        }
                    })
                    .collect();
                let e = match b.name {
                    "saturate" => format!("clamp({}, 0.0, 1.0)", parts[0]),
                    "round" => format!("floor({} + 0.5)", parts[0]),
                    _ => format!("{}({})", b.glsl_name, parts.join(", ")),
                };
                format!("_r{dst} = {e};")
            }
            Inst::Select { dst, cond, a, b } => {
                let to = self.ty(*dst);
                let ae = coerce(format!("_r{a}"), self.ty(*a), to);
                let be = coerce(format!("_r{b}"), self.ty(*b), to);
                format!("_r{dst} = ((_r{cond}) ? ({ae}) : ({be}));")
            }
            Inst::ReadElem { dst, param } => {
                format!("_r{dst} = b_{};", k.params[*param as usize].name)
            }
            Inst::ReadScalar { dst, param } => {
                format!("_r{dst} = {};", scalar_uniform(&k.params[*param as usize].name))
            }
            Inst::ReadOut { dst, out: o } => format!("_r{dst} = _out_{};", k.out_param(*o).name),
            Inst::WriteOut { out: o, op, src } => {
                let p = k.out_param(*o);
                let e = coerce(format!("_r{src}"), self.ty(*src), p.ty);
                format!("_out_{} {} {e};", p.name, assign_op(*op))
            }
            Inst::Gather { dst, param, idx, .. } => {
                let parts: Vec<String> = idx
                    .iter()
                    .map(|r| coerce(format!("_r{r}"), self.ty(*r), Type::FLOAT))
                    .collect();
                format!(
                    "_r{dst} = _gather_{}({});",
                    k.params[*param as usize].name,
                    parts.join(", ")
                )
            }
            Inst::Indexof { dst, param } => {
                let p = &k.params[*param as usize];
                let e = match self.shapes.rank(&p.name) {
                    StreamRank::Grid => {
                        if p.name == self.out || p.kind.is_output() {
                            "_pc".to_owned()
                        } else {
                            format!("floor(v_texcoord * {}.zw)", meta_uniform(&p.name))
                        }
                    }
                    StreamRank::Linear => "vec2(_lin, 0.0)".to_owned(),
                };
                format!("_r{dst} = {e};")
            }
            // Keep the partial output on early exit — see `epilogue`.
            Inst::Ret => format!("{} return;", self.epilogue()),
            Inst::Fail { msg, codegen_fatal } => {
                if *codegen_fatal {
                    return Err(CodegenError::Unsupported(msg.clone()));
                }
                // CPU-only guard fault (helper fall-through check): the
                // legacy GLSL path had no equivalent either.
                return Ok(());
            }
        };
        Self::indent(out, level);
        out.push_str(&line);
        out.push('\n');
        Ok(())
    }

    fn bin_expr(&self, op: BinOp, lhs: Reg, rhs: Reg) -> Result<String, CodegenError> {
        let lt = self.ty(lhs);
        let rt = self.ty(rhs);
        let mut l = format!("_r{lhs}");
        let mut r = format!("_r{rhs}");
        // Brook promotes int operands of float ops implicitly; GLSL ES
        // does not.
        if lt.scalar == ScalarKind::Int && rt.scalar == ScalarKind::Float {
            l = format!("float({l})");
        }
        if rt.scalar == ScalarKind::Int && lt.scalar == ScalarKind::Float {
            r = format!("float({r})");
        }
        if op == BinOp::Rem {
            if lt.scalar == ScalarKind::Int && rt.scalar == ScalarKind::Int {
                // GLSL ES 1.00 has no `%`; integer remainder via
                // truncating division.
                return Ok(format!("(({l}) - (({l}) / ({r})) * ({r}))"));
            }
            return Ok(format!("mod({l}, {r})"));
        }
        Ok(format!("({l} {} {r})", op.as_str()))
    }
}

fn assign_op(op: AssignOp) -> &'static str {
    match op {
        AssignOp::Assign => "=",
        AssignOp::AddAssign => "+=",
        AssignOp::SubAssign => "-=",
        AssignOp::MulAssign => "*=",
        AssignOp::DivAssign => "/=",
    }
}

fn value_literal(v: &Value) -> String {
    match v {
        Value::Float(f) => float_literal(*f),
        Value::Vec2(l) => format!("vec2({}, {})", float_literal(l[0]), float_literal(l[1])),
        Value::Vec3(l) => format!(
            "vec3({}, {}, {})",
            float_literal(l[0]),
            float_literal(l[1]),
            float_literal(l[2])
        ),
        Value::Vec4(l) => format!(
            "vec4({}, {}, {}, {})",
            float_literal(l[0]),
            float_literal(l[1]),
            float_literal(l[2]),
            float_literal(l[3])
        ),
        Value::Int(i) => format!("{i}"),
        Value::Bool(b) => format!("{b}"),
    }
}

fn count_loops(nodes: &[Node]) -> usize {
    nodes
        .iter()
        .map(|n| match n {
            Node::Seq { .. } => 0,
            Node::If { then, els, .. } => count_loops(then) + count_loops(els),
            Node::Loop(l) => 1 + count_loops(&l.header) + count_loops(&l.body),
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use brook_ir::lower::lower_program;
    use brook_lang::parse_and_check;

    fn lower(src: &str) -> IrProgram {
        let checked = parse_and_check(src).expect("front-end");
        let (p, errs) = lower_program(&checked);
        assert!(errs.is_empty(), "{errs:?}");
        p
    }

    fn gen(
        src: &str,
        kernel: &str,
        output: &str,
        shapes: KernelShapes,
        storage: StorageMode,
    ) -> GeneratedShader {
        let p = lower(src);
        generate_ir_kernel_shader(&p, kernel, output, &shapes, storage)
            .unwrap_or_else(|e| panic!("ir codegen: {e}"))
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
        glsl_es::compile(&g.glsl)
            .unwrap_or_else(|e| panic!("generated GLSL does not compile: {e}\n{}", g.glsl));
    }

    #[test]
    fn generates_compilable_native_vector_shader() {
        let g = gen(
            "kernel void scale(float4 a<>, float k, out float4 o<>) { o = a * k; }",
            "scale",
            "o",
            KernelShapes::default(),
            StorageMode::Native,
        );
        assert_eq!(g.scalars, vec!["k"]);
        glsl_es::compile(&g.glsl)
            .unwrap_or_else(|e| panic!("generated GLSL does not compile: {e}\n{}", g.glsl));
    }

    #[test]
    fn loop_uses_gate_pattern() {
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
        assert!(
            g.glsl.contains("for (_lg0 = true; _lg0; _lg0 = _lg0)"),
            "{}",
            g.glsl
        );
        glsl_es::compile(&g.glsl).unwrap();
    }

    #[test]
    fn helpers_arrive_inlined() {
        let g = gen(
            "float sq(float x) { return x * x; }
             kernel void f(float a<>, out float o<>) { o = sq(a) + sq(2.0); }",
            "f",
            "o",
            KernelShapes::default(),
            StorageMode::Packed,
        );
        assert!(
            !g.glsl.contains("b_sq"),
            "helper must be inlined, not emitted:\n{}",
            g.glsl
        );
        glsl_es::compile(&g.glsl).unwrap();
    }

    #[test]
    fn vector_stream_rejected_on_packed() {
        let p = lower("kernel void f(float4 a<>, out float4 o<>) { o = a; }");
        let err = generate_ir_kernel_shader(&p, "f", "o", &KernelShapes::default(), StorageMode::Packed)
            .unwrap_err();
        assert!(matches!(err, CodegenError::VectorStreamOnPackedTarget { .. }));
    }

    #[test]
    fn multi_output_generates_one_shader_per_output() {
        let src = "kernel void fw(float d<>, out float dist<>, out float pred<>) { dist = d * 2.0; pred = d + 1.0; }";
        let g1 = gen(src, "fw", "dist", KernelShapes::default(), StorageMode::Packed);
        let g2 = gen(src, "fw", "pred", KernelShapes::default(), StorageMode::Packed);
        assert!(g1.glsl.contains("ba_encode(_out_dist)"));
        assert!(g2.glsl.contains("ba_encode(_out_pred)"));
        glsl_es::compile(&g1.glsl).unwrap();
        glsl_es::compile(&g2.glsl).unwrap();
    }

    #[test]
    fn fatal_ir_fault_rejected() {
        // `g` used without an index lowers to a codegen-fatal Fail.
        let p = lower("kernel void f(float g[], float a<>, out float o<>) { o = g + a; }");
        let err = generate_ir_kernel_shader(&p, "f", "o", &KernelShapes::default(), StorageMode::Packed)
            .unwrap_err();
        assert!(matches!(err, CodegenError::Unsupported(_)), "{err:?}");
    }

    #[test]
    fn indexof_variants_match_shape_classes() {
        let g = gen(
            "kernel void f(float a<>, out float o<>) { float2 p = indexof(o); o = p.x + p.y; }",
            "f",
            "o",
            KernelShapes::default(),
            StorageMode::Packed,
        );
        assert!(g.glsl.contains("_pc"), "{}", g.glsl);
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
        assert!(g.glsl.contains("vec2(_lin, 0.0)"), "{}", g.glsl);
    }
}
