//! Per-fragment interpreter for compiled shaders, with instruction and
//! texture-fetch cost accounting.
//!
//! The interpreter is strict about types — mismatches indicate code
//! generator bugs and surface as [`ExecError`] — but it is *never* strict
//! about data: texture coordinates outside `[0, 1]` clamp to the edge,
//! mirroring OpenGL ES 2.0 `CLAMP_TO_EDGE` semantics. This is the
//! availability property Brook Auto's certification argument builds on.

use crate::error::ExecError;
use crate::math;
use crate::resolve::{BinKind, Mask, RExpr, RFunction, RStmt, Ref, Shader};
use crate::value::{GlslType, Value};

/// Per-fragment execution cost counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// ALU operations (vector ops count once: the target GPUs have vector
    /// microarchitectures, paper §5.4).
    pub alu: u64,
    /// Texture fetches.
    pub tex: u64,
    /// Taken branches / loop iterations.
    pub branch: u64,
}

impl Cost {
    /// Sum of two costs.
    pub fn add(&self, other: &Cost) -> Cost {
        Cost {
            alu: self.alu + other.alu,
            tex: self.tex + other.tex,
            branch: self.branch + other.branch,
        }
    }
}

/// Texture sampling callback: `(unit, u, v) -> RGBA`.
///
/// The callee (the GL simulator) owns wrap modes and filtering.
pub type SampleFn<'a> = dyn Fn(i32, f32, f32) -> [f32; 4] + 'a;

/// Everything a fragment invocation needs from the outside world.
pub struct FragmentEnv<'a> {
    /// Uniform values, indexed like [`Shader::uniforms`].
    pub uniforms: &'a [Value],
    /// Varying values, indexed like [`Shader::varyings`].
    pub varyings: &'a [Value],
    /// Texture sampler.
    pub sample: &'a SampleFn<'a>,
}

/// Hard cap on loop iterations per fragment: defends the simulator (and
/// the session) against generated code with runaway loops. Real GLES2
/// drivers impose comparable limits via watchdog resets; Brook Auto's
/// BA003 rule makes hitting this impossible for certified kernels.
pub const MAX_LOOP_ITERATIONS: u64 = 1 << 21;

enum Flow {
    Normal,
    Return(Option<Value>),
}

struct Interp<'a, 'e> {
    shader: &'a Shader,
    env: &'a FragmentEnv<'e>,
    frag_color: Value,
    cost: Cost,
    loop_guard: u64,
}

/// Executes the shader for one fragment.
///
/// # Errors
/// Returns [`ExecError`] on type mismatches, missing uniforms or a
/// runaway loop — all indicating toolchain bugs rather than data faults.
pub fn run_fragment(shader: &Shader, env: &FragmentEnv<'_>) -> Result<([f32; 4], Cost), ExecError> {
    if env.uniforms.len() != shader.uniforms.len() {
        return Err(ExecError::new(format!(
            "uniform count mismatch: shader declares {}, caller provided {}",
            shader.uniforms.len(),
            env.uniforms.len()
        )));
    }
    if env.varyings.len() != shader.varyings.len() {
        return Err(ExecError::new("varying count mismatch"));
    }
    let mut interp = Interp {
        shader,
        env,
        frag_color: Value::Vec4([0.0; 4]),
        cost: Cost::default(),
        loop_guard: 0,
    };
    let main = &shader.functions[shader.main_index];
    let mut frame = vec![Value::Float(0.0); main.n_slots];
    interp.exec_body(main, &mut frame)?;
    Ok((interp.frag_color.to_vec4(), interp.cost))
}

impl Interp<'_, '_> {
    fn exec_body(&mut self, f: &RFunction, frame: &mut [Value]) -> Result<Option<Value>, ExecError> {
        match self.exec_block(&f.body, frame)? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(None),
        }
    }

    fn exec_block(&mut self, stmts: &[RStmt], frame: &mut [Value]) -> Result<Flow, ExecError> {
        for s in stmts {
            match self.exec_stmt(s, frame)? {
                Flow::Normal => {}
                ret => return Ok(ret),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &RStmt, frame: &mut [Value]) -> Result<Flow, ExecError> {
        match s {
            RStmt::Store {
                target,
                mask,
                op,
                value,
            } => {
                let rhs = self.eval(value, frame)?;
                self.store(*target, *mask, *op, rhs, frame)?;
                Ok(Flow::Normal)
            }
            RStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(cond, frame)?;
                let Some(c) = c.as_bool() else {
                    return Err(ExecError::new("if condition is not a bool"));
                };
                self.cost.branch += 1;
                if c {
                    self.exec_block(then_body, frame)
                } else {
                    self.exec_block(else_body, frame)
                }
            }
            RStmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.exec_stmt(init, frame)?;
                loop {
                    let c = self.eval(cond, frame)?;
                    let Some(c) = c.as_bool() else {
                        return Err(ExecError::new("for condition is not a bool"));
                    };
                    if !c {
                        break;
                    }
                    self.loop_guard += 1;
                    self.cost.branch += 1;
                    if self.loop_guard > MAX_LOOP_ITERATIONS {
                        return Err(ExecError::new("loop iteration budget exceeded (runaway loop)"));
                    }
                    match self.exec_block(body, frame)? {
                        Flow::Normal => {}
                        ret => return Ok(ret),
                    }
                    self.exec_stmt(step, frame)?;
                }
                Ok(Flow::Normal)
            }
            RStmt::Return(v) => {
                let v = match v {
                    Some(e) => Some(self.eval(e, frame)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            RStmt::Eval(e) => {
                self.eval(e, frame)?;
                Ok(Flow::Normal)
            }
        }
    }

    fn store(
        &mut self,
        target: Ref,
        mask: Option<Mask>,
        op: char,
        rhs: Value,
        frame: &mut [Value],
    ) -> Result<(), ExecError> {
        let current = match target {
            Ref::Local(slot) => frame[slot as usize],
            Ref::FragColor => self.frag_color,
            _ => return Err(ExecError::new("store to read-only reference")),
        };
        let combined = if op == '=' {
            rhs
        } else {
            self.cost.alu += 1;
            let kind = match op {
                '+' => BinKind::Add,
                '-' => BinKind::Sub,
                '*' => BinKind::Mul,
                _ => BinKind::Div,
            };
            // Compound ops re-read through the mask if present.
            let lhs_view = match mask {
                Some(m) => apply_mask(&current, &m)?,
                None => current,
            };
            bin_op(kind, &lhs_view, &rhs)?
        };
        let new_value = match mask {
            None => combined,
            Some(m) => {
                let mut lanes: Vec<f32> = current.lanes().to_vec();
                if lanes.is_empty() {
                    return Err(ExecError::new("swizzled store into a non-float value"));
                }
                let src = combined.lanes();
                if src.len() != m.len as usize {
                    return Err(ExecError::new("swizzled store width mismatch"));
                }
                for (i, lane) in m.lanes.iter().take(m.len as usize).enumerate() {
                    let li = *lane as usize;
                    if li >= lanes.len() {
                        return Err(ExecError::new("swizzled store lane out of range"));
                    }
                    lanes[li] = src[i];
                }
                Value::from_lanes(&lanes)
            }
        };
        match target {
            Ref::Local(slot) => frame[slot as usize] = new_value,
            Ref::FragColor => {
                if new_value.glsl_type() != GlslType::Vec4 {
                    return Err(ExecError::new("gl_FragColor must be a vec4"));
                }
                self.frag_color = new_value;
            }
            _ => unreachable!("validated above"),
        }
        Ok(())
    }

    fn load(&self, r: Ref, frame: &[Value]) -> Result<Value, ExecError> {
        Ok(match r {
            Ref::Local(slot) => frame[slot as usize],
            Ref::Uniform(i) => self.env.uniforms[i as usize],
            Ref::Varying(i) => self.env.varyings[i as usize],
            Ref::Const(i) => self.shader.consts[i as usize],
            Ref::FragColor => self.frag_color,
        })
    }

    fn eval(&mut self, e: &RExpr, frame: &mut [Value]) -> Result<Value, ExecError> {
        match e {
            RExpr::Lit(v) => Ok(*v),
            RExpr::Load(r) => self.load(*r, frame),
            RExpr::Bin(kind, a, b) => {
                let (av, bv) = (self.eval(a, frame)?, self.eval(b, frame)?);
                self.cost.alu += 1;
                bin_op(*kind, &av, &bv)
            }
            RExpr::Neg(x) => {
                let v = self.eval(x, frame)?;
                self.cost.alu += 1;
                match v {
                    Value::Int(i) => Ok(Value::Int(-i)),
                    other => other
                        .map(|f| -f)
                        .ok_or_else(|| ExecError::new("cannot negate a bool")),
                }
            }
            RExpr::Not(x) => {
                let v = self.eval(x, frame)?;
                self.cost.alu += 1;
                v.as_bool()
                    .map(|b| Value::Bool(!b))
                    .ok_or_else(|| ExecError::new("`!` needs a bool"))
            }
            RExpr::Ternary(c, t, f) => {
                let cv = self.eval(c, frame)?;
                let Some(cv) = cv.as_bool() else {
                    return Err(ExecError::new("ternary condition is not a bool"));
                };
                self.cost.branch += 1;
                if cv {
                    self.eval(t, frame)
                } else {
                    self.eval(f, frame)
                }
            }
            RExpr::Builtin(b, args) => {
                let mut vals = [Value::Float(0.0); 3];
                for (i, a) in args.iter().enumerate() {
                    vals[i] = self.eval(a, frame)?;
                }
                self.cost.alu += b.cost;
                math::eval(b.fun, &vals[..args.len()])
                    .ok_or_else(|| ExecError::new(format!("invalid arguments for builtin {:?}", b.fun)))
            }
            RExpr::CallUser(idx, args) => {
                let callee = &self.shader.functions[*idx];
                let mut callee_frame = vec![Value::Float(0.0); callee.n_slots];
                for (i, a) in args.iter().enumerate() {
                    callee_frame[i] = self.eval(a, frame)?;
                }
                self.cost.branch += 1;
                let ret = self.exec_body(callee, &mut callee_frame)?;
                match ret {
                    Some(v) => Ok(v),
                    None if callee.return_ty == GlslType::Void => Ok(Value::Float(0.0)),
                    None => Err(ExecError::new(format!(
                        "function `{}` did not return a value",
                        callee.name
                    ))),
                }
            }
            RExpr::Construct(ty, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, frame)?);
                }
                self.cost.alu += 1;
                construct(*ty, &vals)
            }
            RExpr::Swizzle(base, mask) => {
                let v = self.eval(base, frame)?;
                apply_mask(&v, mask)
            }
            RExpr::Texture(unit_slot, coord) => {
                let c = self.eval(coord, frame)?;
                let Value::Vec2([u, v]) = c else {
                    return Err(ExecError::new("texture2D coordinate must be a vec2"));
                };
                let unit = self.env.uniforms[*unit_slot as usize]
                    .as_int()
                    .ok_or_else(|| ExecError::new("sampler uniform not bound to a texture unit"))?;
                self.cost.tex += 1;
                self.cost.alu += 1;
                Ok(Value::Vec4((self.env.sample)(unit, u, v)))
            }
        }
    }
}

fn apply_mask(v: &Value, m: &Mask) -> Result<Value, ExecError> {
    let lanes = v.lanes();
    if lanes.is_empty() {
        return Err(ExecError::new("cannot swizzle a non-float value"));
    }
    let mut out = [0.0f32; 4];
    for (slot, lane) in out.iter_mut().zip(m.lanes.iter().take(m.len as usize)) {
        let li = *lane as usize;
        if li >= lanes.len() {
            return Err(ExecError::new("swizzle lane out of range"));
        }
        *slot = lanes[li];
    }
    Ok(Value::from_lanes(&out[..m.len as usize]))
}

fn bin_op(kind: BinKind, a: &Value, b: &Value) -> Result<Value, ExecError> {
    use BinKind::*;
    // Integer arithmetic (loop counters).
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        return Ok(match kind {
            Add => Value::Int(x.wrapping_add(*y)),
            Sub => Value::Int(x.wrapping_sub(*y)),
            Mul => Value::Int(x.wrapping_mul(*y)),
            Div => Value::Int(if *y == 0 { 0 } else { x / y }),
            Lt => Value::Bool(x < y),
            Le => Value::Bool(x <= y),
            Gt => Value::Bool(x > y),
            Ge => Value::Bool(x >= y),
            Eq => Value::Bool(x == y),
            Ne => Value::Bool(x != y),
            And | Or => return Err(ExecError::new("logical op on ints")),
        });
    }
    if let (Value::Bool(x), Value::Bool(y)) = (a, b) {
        return Ok(match kind {
            And => Value::Bool(*x && *y),
            Or => Value::Bool(*x || *y),
            Eq => Value::Bool(x == y),
            Ne => Value::Bool(x != y),
            _ => return Err(ExecError::new("arithmetic on bools")),
        });
    }
    // Float comparisons are scalar-only in GLSL ES (vector comparisons go
    // through lessThan() etc., which the subset does not need).
    if matches!(kind, Lt | Le | Gt | Ge | Eq | Ne) {
        let (Some(x), Some(y)) = (a.as_float(), b.as_float()) else {
            return Err(ExecError::new(format!(
                "comparison requires scalar floats, found {} and {}",
                a.glsl_type(),
                b.glsl_type()
            )));
        };
        return Ok(Value::Bool(match kind {
            Lt => x < y,
            Le => x <= y,
            Gt => x > y,
            Ge => x >= y,
            Eq => x == y,
            _ => x != y,
        }));
    }
    if matches!(kind, And | Or) {
        return Err(ExecError::new("logical op on non-bools"));
    }
    let f = match kind {
        Add => |x: f32, y: f32| x + y,
        Sub => |x: f32, y: f32| x - y,
        Mul => |x: f32, y: f32| x * y,
        _ => |x: f32, y: f32| x / y,
    };
    a.zip(b, f).ok_or_else(|| {
        ExecError::new(format!(
            "operand type mismatch: {} vs {} (GLSL ES has no implicit conversions)",
            a.glsl_type(),
            b.glsl_type()
        ))
    })
}

fn construct(ty: GlslType, args: &[Value]) -> Result<Value, ExecError> {
    match ty {
        GlslType::Int => {
            let v = args
                .first()
                .ok_or_else(|| ExecError::new("int() needs an argument"))?;
            Ok(Value::Int(match v {
                Value::Float(f) => *f as i32,
                Value::Int(i) => *i,
                Value::Bool(b) => *b as i32,
                _ => return Err(ExecError::new("int() argument must be scalar")),
            }))
        }
        GlslType::Bool => {
            let v = args
                .first()
                .ok_or_else(|| ExecError::new("bool() needs an argument"))?;
            Ok(Value::Bool(match v {
                Value::Float(f) => *f != 0.0,
                Value::Int(i) => *i != 0,
                Value::Bool(b) => *b,
                _ => return Err(ExecError::new("bool() argument must be scalar")),
            }))
        }
        t => {
            let n = t.components();
            if n == 0 {
                return Err(ExecError::new("cannot construct this type"));
            }
            let mut lanes = Vec::with_capacity(4);
            for a in args {
                match a {
                    Value::Int(i) => lanes.push(*i as f32),
                    Value::Bool(b) => lanes.push(*b as i32 as f32),
                    v => lanes.extend_from_slice(v.lanes()),
                }
            }
            if args.len() == 1 && lanes.len() == 1 {
                return Ok(Value::from_lanes(&vec![lanes[0]; n]));
            }
            if lanes.len() < n {
                return Err(ExecError::new(format!(
                    "{t} constructor needs {n} components, found {}",
                    lanes.len()
                )));
            }
            lanes.truncate(n);
            Ok(Value::from_lanes(&lanes))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::compile;

    fn no_tex(_: i32, _: f32, _: f32) -> [f32; 4] {
        [0.0; 4]
    }

    fn run(src: &str) -> [f32; 4] {
        run_with(src, &[], &[])
    }

    fn run_with(src: &str, uniforms: &[Value], varyings: &[Value]) -> [f32; 4] {
        let shader = compile(src).unwrap_or_else(|e| panic!("compile: {e}"));
        let env = FragmentEnv {
            uniforms,
            varyings,
            sample: &no_tex,
        };
        let (color, _) = run_fragment(&shader, &env).unwrap_or_else(|e| panic!("run: {e}"));
        color
    }

    #[test]
    fn constant_color() {
        assert_eq!(
            run("void main() { gl_FragColor = vec4(0.25, 0.5, 0.75, 1.0); }"),
            [0.25, 0.5, 0.75, 1.0]
        );
    }

    #[test]
    fn arithmetic_and_locals() {
        let c = run("void main() { float a = 2.0; float b = a * 3.0 + 1.0; gl_FragColor = vec4(b); }");
        assert_eq!(c, [7.0; 4]);
    }

    #[test]
    fn vector_ops_and_swizzles() {
        let c = run("void main() {
                 vec4 v = vec4(1.0, 2.0, 3.0, 4.0);
                 vec2 p = v.wy;
                 gl_FragColor = vec4(p, v.x + v.z, 1.0);
             }");
        assert_eq!(c, [4.0, 2.0, 4.0, 1.0]);
    }

    #[test]
    fn for_loop_accumulates() {
        let c = run("void main() {
                 float s = 0.0;
                 for (int i = 0; i < 10; i++) { s += 2.0; }
                 gl_FragColor = vec4(s);
             }");
        assert_eq!(c[0], 20.0);
    }

    #[test]
    fn nested_loops() {
        let c = run("void main() {
                 float s = 0.0;
                 for (int i = 0; i < 4; i++) { for (int j = 0; j < 4; j++) { s += 1.0; } }
                 gl_FragColor = vec4(s);
             }");
        assert_eq!(c[0], 16.0);
    }

    #[test]
    fn if_else_branches() {
        let c = run("void main() {
                 float x = 3.0;
                 if (x > 2.0) { gl_FragColor = vec4(1.0); } else { gl_FragColor = vec4(0.0); }
             }");
        assert_eq!(c[0], 1.0);
    }

    #[test]
    fn ternary() {
        assert_eq!(
            run("void main() { gl_FragColor = vec4(2.0 < 1.0 ? 5.0 : 7.0); }")[0],
            7.0
        );
    }

    #[test]
    fn user_function_call() {
        let c = run("float sq(float x) { return x * x; }
             vec2 both(float a, float b) { return vec2(sq(a), sq(b)); }
             void main() { gl_FragColor = vec4(both(3.0, 4.0), 0.0, 0.0); }");
        assert_eq!(c, [9.0, 16.0, 0.0, 0.0]);
    }

    #[test]
    fn uniforms_and_varyings() {
        let c = run_with(
            "uniform float scale; varying vec2 v_texcoord;
             void main() { gl_FragColor = vec4(v_texcoord * scale, 0.0, 1.0); }",
            &[Value::Float(10.0)],
            &[Value::Vec2([0.25, 0.5])],
        );
        assert_eq!(c, [2.5, 5.0, 0.0, 1.0]);
    }

    #[test]
    fn texture_sampling_uses_unit() {
        let shader = compile(
            "uniform sampler2D t; varying vec2 uv;
             void main() { gl_FragColor = texture2D(t, uv); }",
        )
        .unwrap();
        let sample = |unit: i32, u: f32, v: f32| [unit as f32, u, v, 1.0];
        let env = FragmentEnv {
            uniforms: &[Value::Int(3)],
            varyings: &[Value::Vec2([0.5, 0.25])],
            sample: &sample,
        };
        let (c, cost) = run_fragment(&shader, &env).unwrap();
        assert_eq!(c, [3.0, 0.5, 0.25, 1.0]);
        assert_eq!(cost.tex, 1);
    }

    #[test]
    fn builtins() {
        assert_eq!(
            run("void main() { gl_FragColor = vec4(max(1.0, 2.0), min(1.0, 2.0), abs(-3.0), floor(1.7)); }"),
            [2.0, 1.0, 3.0, 1.0]
        );
        assert_eq!(
            run("void main() { gl_FragColor = vec4(clamp(5.0, 0.0, 1.0)); }")[0],
            1.0
        );
        assert_eq!(
            run("void main() { gl_FragColor = vec4(mix(0.0, 10.0, 0.25)); }")[0],
            2.5
        );
        assert_eq!(
            run("void main() { gl_FragColor = vec4(dot(vec2(1.0, 2.0), vec2(3.0, 4.0))); }")[0],
            11.0
        );
        assert_eq!(
            run("void main() { gl_FragColor = vec4(length(vec3(3.0, 4.0, 0.0))); }")[0],
            5.0
        );
        assert_eq!(run("void main() { gl_FragColor = vec4(mod(7.0, 3.0)); }")[0], 1.0);
        assert_eq!(
            run("void main() { gl_FragColor = vec4(step(2.0, 1.0), step(2.0, 3.0), 0.0, 0.0); }")[..2],
            [0.0, 1.0]
        );
        assert!((run("void main() { gl_FragColor = vec4(pow(2.0, 10.0)); }")[0] - 1024.0).abs() < 1e-3);
    }

    #[test]
    fn int_loop_counters_are_ints() {
        // `i / 2` on ints truncates.
        let c = run("void main() {
                 float s = 0.0;
                 for (int i = 0; i < 5; i++) { s += float(i / 2); }
                 gl_FragColor = vec4(s);
             }");
        // 0 + 0 + 1 + 1 + 2 = 4
        assert_eq!(c[0], 4.0);
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let shader = compile("void main() { gl_FragColor = vec4(1.0 + vec2(1.0, 2.0).x, 0.0, 0.0, 0.0); gl_FragColor = vec4(1.0); }").unwrap();
        let env = FragmentEnv {
            uniforms: &[],
            varyings: &[],
            sample: &no_tex,
        };
        assert!(run_fragment(&shader, &env).is_ok());
        // int + float has no implicit conversion:
        let bad = compile("void main() { int i = 1; float f = 1.0; gl_FragColor = vec4(float(i) + f); float g = f; int j = i + 1; gl_FragColor = vec4(g + float(j)); }").unwrap();
        assert!(run_fragment(
            &bad,
            &FragmentEnv {
                uniforms: &[],
                varyings: &[],
                sample: &no_tex
            }
        )
        .is_ok());
    }

    #[test]
    fn strict_no_implicit_int_float() {
        let shader =
            compile("void main() { float f = 1.0; int i = 2; gl_FragColor = vec4(f * i); }").unwrap();
        let env = FragmentEnv {
            uniforms: &[],
            varyings: &[],
            sample: &no_tex,
        };
        assert!(run_fragment(&shader, &env).is_err());
    }

    #[test]
    fn swizzled_store() {
        let c = run("void main() {
                 vec4 v = vec4(0.0);
                 v.xz = vec2(1.0, 2.0);
                 v.w = 3.0;
                 gl_FragColor = v;
             }");
        assert_eq!(c, [1.0, 0.0, 2.0, 3.0]);
    }

    #[test]
    fn compound_assign_through_swizzle() {
        let c = run("void main() {
                 vec4 v = vec4(1.0, 2.0, 3.0, 4.0);
                 v.x += 10.0;
                 gl_FragColor = v;
             }");
        assert_eq!(c, [11.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn cost_counts_loop_work() {
        let shader = compile(
            "void main() {
                 float s = 0.0;
                 for (int i = 0; i < 100; i++) { s += 1.0; }
                 gl_FragColor = vec4(s);
             }",
        )
        .unwrap();
        let env = FragmentEnv {
            uniforms: &[],
            varyings: &[],
            sample: &no_tex,
        };
        let (_, cost) = run_fragment(&shader, &env).unwrap();
        assert!(cost.alu >= 200, "alu cost {} too small", cost.alu);
        assert!(cost.branch >= 100);
    }

    #[test]
    fn runaway_loop_is_stopped() {
        // A loop whose condition never becomes false (int overflow wraps).
        let shader = compile(
            "void main() {
                 float s = 0.0;
                 for (int i = 0; i >= 0; i = i + 0) { s += 1.0; }
                 gl_FragColor = vec4(s);
             }",
        )
        .unwrap();
        let env = FragmentEnv {
            uniforms: &[],
            varyings: &[],
            sample: &no_tex,
        };
        let err = run_fragment(&shader, &env).unwrap_err();
        assert!(err.to_string().contains("runaway"), "{err}");
    }

    #[test]
    fn frag_color_must_be_vec4() {
        let shader = compile("void main() { gl_FragColor = vec4(1.0); }").unwrap();
        let env = FragmentEnv {
            uniforms: &[],
            varyings: &[],
            sample: &no_tex,
        };
        assert!(run_fragment(&shader, &env).is_ok());
    }

    #[test]
    fn uniform_count_mismatch_rejected() {
        let shader = compile("uniform float u; void main() { gl_FragColor = vec4(u); }").unwrap();
        let env = FragmentEnv {
            uniforms: &[],
            varyings: &[],
            sample: &no_tex,
        };
        assert!(run_fragment(&shader, &env).is_err());
    }
}
