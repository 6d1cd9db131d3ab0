//! Name resolution: turns the parsed shader into a slot-indexed IR the
//! interpreter can execute without hash lookups.
//!
//! Every local variable and parameter gets a frame slot; uniforms,
//! varyings and const globals get table indices. `gl_FragColor` is the
//! single render target of OpenGL ES 2.0 (no MRT) and resolves to a
//! dedicated reference.

use crate::error::ShaderError;
use crate::math::{Bin, Fun, Un};
use crate::syntax::{self, GlobalKind, PExpr, PStmt, Unit};
use crate::value::{GlslType, Value};
use std::collections::HashMap;

/// A resolved call to a built-in function: what it computes, in the
/// shared table, and its ALU cost in simulator units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Builtin {
    /// The table function.
    pub(crate) fun: Fun,
    /// ALU cost; transcendentals are multi-cycle.
    pub(crate) cost: u64,
}

impl Builtin {
    /// Resolves a GLSL ES spelling to its builtin.
    fn from_name(name: &str) -> Option<Builtin> {
        let (fun, cost) = match name {
            "sin" => (Fun::Un(Un::Sin), 4),
            "cos" => (Fun::Un(Un::Cos), 4),
            "tan" => (Fun::Un(Un::Tan), 6),
            "exp" => (Fun::Un(Un::Exp), 4),
            "exp2" => (Fun::Un(Un::Exp2), 4),
            "log" => (Fun::Un(Un::Log), 4),
            "log2" => (Fun::Un(Un::Log2), 4),
            "sqrt" => (Fun::Un(Un::Sqrt), 4),
            "inversesqrt" => (Fun::Un(Un::Rsqrt), 4),
            "abs" => (Fun::Un(Un::Abs), 1),
            "floor" => (Fun::Un(Un::Floor), 1),
            "ceil" => (Fun::Un(Un::Ceil), 1),
            "fract" => (Fun::Un(Un::Fract), 1),
            "sign" => (Fun::Un(Un::Sign), 1),
            "mod" => (Fun::Bin(Bin::Fmod), 2),
            "min" => (Fun::Bin(Bin::Min), 1),
            "max" => (Fun::Bin(Bin::Max), 1),
            "clamp" => (Fun::Clamp, 1),
            "mix" => (Fun::Lerp, 2),
            "step" => (Fun::Bin(Bin::Step), 1),
            "smoothstep" => (Fun::Smoothstep, 3),
            "dot" => (Fun::Dot, 2),
            "length" => (Fun::Length, 5),
            "distance" => (Fun::Distance, 5),
            "normalize" => (Fun::Normalize, 5),
            "pow" => (Fun::Bin(Bin::Pow), 6),
            "atan" => (Fun::Bin(Bin::Atan2), 6),
            _ => return None,
        };
        Some(Builtin { fun, cost })
    }
}

/// Where a value lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ref {
    /// Function-frame slot.
    Local(u16),
    /// Uniform table index.
    Uniform(u16),
    /// Varying table index.
    Varying(u16),
    /// Evaluated const-global table index.
    Const(u16),
    /// The fragment output register.
    FragColor,
}

/// Swizzle mask: lane indices plus count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mask {
    /// Lane index per output component.
    pub lanes: [u8; 4],
    /// Number of components selected.
    pub len: u8,
}

impl Mask {
    /// Parses a normalized `xyzw` component string.
    pub fn parse(components: &str) -> Mask {
        let mut lanes = [0u8; 4];
        for (i, c) in components.bytes().enumerate().take(4) {
            lanes[i] = match c {
                b'x' => 0,
                b'y' => 1,
                b'z' => 2,
                _ => 3,
            };
        }
        Mask {
            lanes,
            len: components.len().min(4) as u8,
        }
    }
}

/// Resolved expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    Lit(Value),
    Load(Ref),
    Bin(BinKind, Box<RExpr>, Box<RExpr>),
    Neg(Box<RExpr>),
    Not(Box<RExpr>),
    Ternary(Box<RExpr>, Box<RExpr>, Box<RExpr>),
    Builtin(Builtin, Vec<RExpr>),
    CallUser(usize, Vec<RExpr>),
    Construct(GlslType, Vec<RExpr>),
    Swizzle(Box<RExpr>, Mask),
    /// `texture2D(sampler, coord)` with the sampler's uniform index.
    Texture(u16, Box<RExpr>),
}

/// Binary operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

impl BinKind {
    fn from_str(s: &str) -> BinKind {
        match s {
            "+" => BinKind::Add,
            "-" => BinKind::Sub,
            "*" => BinKind::Mul,
            "/" => BinKind::Div,
            "<" => BinKind::Lt,
            "<=" => BinKind::Le,
            ">" => BinKind::Gt,
            ">=" => BinKind::Ge,
            "==" => BinKind::Eq,
            "!=" => BinKind::Ne,
            "&&" => BinKind::And,
            _ => BinKind::Or,
        }
    }
}

/// Resolved statement.
#[derive(Debug, Clone, PartialEq)]
pub enum RStmt {
    /// Store to a reference, optionally through a swizzle mask, with an
    /// optional compound op (`'='`, `'+'`, `'-'`, `'*'`, `'/'`).
    Store {
        target: Ref,
        mask: Option<Mask>,
        op: char,
        value: RExpr,
    },
    If {
        cond: RExpr,
        then_body: Vec<RStmt>,
        else_body: Vec<RStmt>,
    },
    For {
        init: Box<RStmt>,
        cond: RExpr,
        step: Box<RStmt>,
        body: Vec<RStmt>,
    },
    Return(Option<RExpr>),
    Eval(RExpr),
}

/// A resolved function.
#[derive(Debug, Clone)]
pub struct RFunction {
    /// Frame size in slots; the first `n_params` are parameters.
    pub n_slots: usize,
    /// Parameter count.
    pub n_params: usize,
    /// Body statements.
    pub body: Vec<RStmt>,
    /// Declared return type.
    pub return_ty: GlslType,
    /// Function name (diagnostics).
    pub name: String,
}

/// Description of one active uniform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniformInfo {
    /// Uniform name as written in the shader.
    pub name: String,
    /// Declared type.
    pub ty: GlslType,
}

/// A compiled fragment shader, ready for per-fragment execution.
#[derive(Debug, Clone)]
pub struct Shader {
    /// Active uniforms; the index is the slot used by `set_uniform`.
    pub uniforms: Vec<UniformInfo>,
    /// Declared varyings (name, type); index is the varying slot.
    pub varyings: Vec<(String, GlslType)>,
    /// Evaluated const globals.
    pub consts: Vec<Value>,
    /// All functions; `main_index` designates the entry point.
    pub functions: Vec<RFunction>,
    /// Index of `main` in `functions`.
    pub main_index: usize,
    /// Static instruction count of the source (for reports).
    pub static_size: usize,
}

impl Shader {
    /// Index of a uniform by name.
    pub fn uniform_index(&self, name: &str) -> Option<usize> {
        self.uniforms.iter().position(|u| u.name == name)
    }

    /// Index of a varying by name.
    pub fn varying_index(&self, name: &str) -> Option<usize> {
        self.varyings.iter().position(|v| v.0 == name)
    }
}

/// Compiles GLSL ES 1.00 fragment shader source.
///
/// Compiling runs on the caller's stack: the parser's limits on
/// expression tree depth and statement nesting (256 each) bound the
/// recursion of the parser and the resolver, and that of
/// [`crate::run_fragment`] within each function body.
///
/// # Errors
/// Returns a [`ShaderError`] for syntax errors (a source over either
/// nesting limit included), unknown identifiers, unsupported constructs,
/// or recursion (GLSL ES forbids it).
pub fn compile(src: &str) -> Result<Shader, ShaderError> {
    resolve(&syntax::parse(src)?)
}

struct Resolver {
    uniforms: Vec<UniformInfo>,
    varyings: Vec<(String, GlslType)>,
    const_names: Vec<String>,
    consts: Vec<Value>,
    functions: Vec<RFunction>,
    func_names: HashMap<String, usize>,
    scopes: Vec<HashMap<String, u16>>,
    next_slot: u16,
    static_size: usize,
}

fn resolve(unit: &Unit) -> Result<Shader, ShaderError> {
    let mut r = Resolver {
        uniforms: Vec::new(),
        varyings: Vec::new(),
        const_names: Vec::new(),
        consts: Vec::new(),
        functions: Vec::new(),
        func_names: HashMap::new(),
        scopes: Vec::new(),
        next_slot: 0,
        static_size: 0,
    };
    for g in &unit.globals {
        match g.kind {
            GlobalKind::Uniform => {
                r.uniforms.push(UniformInfo {
                    name: g.name.clone(),
                    ty: g.ty,
                });
            }
            GlobalKind::Varying => {
                r.varyings.push((g.name.clone(), g.ty));
            }
            GlobalKind::Const => {
                let init = g.init.as_ref().expect("parser guarantees const init");
                let rexpr = r.resolve_expr(init)?;
                let v = const_eval(&rexpr, &r.consts).ok_or_else(|| {
                    ShaderError::resolve(format!("const `{}` initializer is not constant", g.name))
                })?;
                r.const_names.push(g.name.clone());
                r.consts.push(v);
            }
        }
    }
    for f in &unit.functions {
        let rf = r.resolve_function(f)?;
        // Declaration-before-use gives recursion rejection for free: a
        // function can only call previously resolved functions.
        r.func_names.insert(f.name.clone(), r.functions.len());
        r.functions.push(rf);
    }
    let main_index = *r
        .func_names
        .get("main")
        .ok_or_else(|| ShaderError::resolve("missing main"))?;
    Ok(Shader {
        uniforms: r.uniforms,
        varyings: r.varyings,
        consts: r.consts,
        functions: r.functions,
        main_index,
        static_size: r.static_size,
    })
}

/// Best-effort constant folding for const-global initializers.
fn const_eval(e: &RExpr, consts: &[Value]) -> Option<Value> {
    match e {
        RExpr::Lit(v) => Some(*v),
        RExpr::Load(Ref::Const(i)) => consts.get(*i as usize).copied(),
        RExpr::Neg(x) => {
            let v = const_eval(x, consts)?;
            match v {
                Value::Int(i) => Some(Value::Int(-i)),
                other => other.map(|f| -f),
            }
        }
        RExpr::Bin(kind, a, b) => {
            let (a, b) = (const_eval(a, consts)?, const_eval(b, consts)?);
            if let (Value::Int(x), Value::Int(y)) = (a, b) {
                return Some(Value::Int(match kind {
                    BinKind::Add => x + y,
                    BinKind::Sub => x - y,
                    BinKind::Mul => x * y,
                    BinKind::Div => x.checked_div(y)?,
                    _ => return None,
                }));
            }
            let f = match kind {
                BinKind::Add => |x: f32, y: f32| x + y,
                BinKind::Sub => |x: f32, y: f32| x - y,
                BinKind::Mul => |x: f32, y: f32| x * y,
                BinKind::Div => |x: f32, y: f32| x / y,
                _ => return None,
            };
            a.zip(&b, f)
        }
        RExpr::Construct(ty, args) => {
            let mut lanes = Vec::new();
            for a in args {
                let v = const_eval(a, consts)?;
                match v {
                    Value::Int(i) => lanes.push(i as f32),
                    other => lanes.extend_from_slice(other.lanes()),
                }
            }
            match ty {
                GlslType::Int => Some(Value::Int(lanes.first().map(|v| *v as i32)?)),
                t if t.components() > 0 => {
                    let n = t.components();
                    if lanes.len() == 1 {
                        Some(Value::from_lanes(&vec![lanes[0]; n]))
                    } else if lanes.len() == n {
                        Some(Value::from_lanes(&lanes))
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        _ => None,
    }
}

impl Resolver {
    fn lookup_local(&self, name: &str) -> Option<u16> {
        for s in self.scopes.iter().rev() {
            if let Some(slot) = s.get(name) {
                return Some(*slot);
            }
        }
        None
    }

    fn resolve_ref(&self, name: &str) -> Result<Ref, ShaderError> {
        if name == "gl_FragColor" {
            return Ok(Ref::FragColor);
        }
        if let Some(slot) = self.lookup_local(name) {
            return Ok(Ref::Local(slot));
        }
        if let Some(i) = self.uniforms.iter().position(|u| u.name == name) {
            return Ok(Ref::Uniform(i as u16));
        }
        if let Some(i) = self.varyings.iter().position(|v| v.0 == name) {
            return Ok(Ref::Varying(i as u16));
        }
        if let Some(i) = self.const_names.iter().position(|c| c == name) {
            return Ok(Ref::Const(i as u16));
        }
        Err(ShaderError::resolve(format!("unknown identifier `{name}`")))
    }

    fn resolve_function(&mut self, f: &syntax::PFunction) -> Result<RFunction, ShaderError> {
        self.scopes.clear();
        self.next_slot = 0;
        let mut scope = HashMap::new();
        for (_, pname) in &f.params {
            scope.insert(pname.clone(), self.next_slot);
            self.next_slot += 1;
        }
        self.scopes.push(scope);
        let body = self.resolve_block(&f.body)?;
        self.scopes.pop();
        Ok(RFunction {
            n_slots: self.next_slot as usize,
            n_params: f.params.len(),
            body,
            return_ty: f.return_ty,
            name: f.name.clone(),
        })
    }

    fn resolve_block(&mut self, stmts: &[PStmt]) -> Result<Vec<RStmt>, ShaderError> {
        self.scopes.push(HashMap::new());
        let mut out = Vec::new();
        for s in stmts {
            out.extend(self.resolve_stmt(s)?);
        }
        self.scopes.pop();
        Ok(out)
    }

    fn resolve_stmt(&mut self, s: &PStmt) -> Result<Vec<RStmt>, ShaderError> {
        self.static_size += 1;
        Ok(match s {
            PStmt::Decl { ty, name, init } => {
                let value = match init {
                    Some(e) => self.resolve_expr(e)?,
                    None => RExpr::Lit(Value::zero(*ty)),
                };
                let slot = self.next_slot;
                self.next_slot += 1;
                self.scopes
                    .last_mut()
                    .expect("scope stack never empty")
                    .insert(name.clone(), slot);
                vec![RStmt::Store {
                    target: Ref::Local(slot),
                    mask: None,
                    op: '=',
                    value,
                }]
            }
            PStmt::Assign { target, op, value } => {
                let value = self.resolve_expr(value)?;
                let (r, mask) = match target {
                    PExpr::Var(name) => (self.resolve_ref(name)?, None),
                    PExpr::Swizzle(base, comps) => {
                        let PExpr::Var(name) = base.as_ref() else {
                            return Err(ShaderError::resolve("swizzled store target must be a variable"));
                        };
                        (self.resolve_ref(name)?, Some(Mask::parse(comps)))
                    }
                    _ => return Err(ShaderError::resolve("assignment target is not an lvalue")),
                };
                if matches!(r, Ref::Uniform(_) | Ref::Varying(_) | Ref::Const(_)) {
                    return Err(ShaderError::resolve("cannot write to a uniform/varying/const"));
                }
                vec![RStmt::Store {
                    target: r,
                    mask,
                    op: *op,
                    value,
                }]
            }
            PStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let cond = self.resolve_expr(cond)?;
                let then_body = self.resolve_block(then_body)?;
                let else_body = self.resolve_block(else_body)?;
                vec![RStmt::If {
                    cond,
                    then_body,
                    else_body,
                }]
            }
            PStmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                let init_r = self.resolve_stmt(init)?;
                let cond = self.resolve_expr(cond)?;
                let step_r = self.resolve_stmt(step)?;
                let body = self.resolve_block(body)?;
                self.scopes.pop();
                let single = |mut v: Vec<RStmt>| -> Result<Box<RStmt>, ShaderError> {
                    if v.len() != 1 {
                        return Err(ShaderError::resolve("for-header statements must be simple"));
                    }
                    Ok(Box::new(v.remove(0)))
                };
                vec![RStmt::For {
                    init: single(init_r)?,
                    cond,
                    step: single(step_r)?,
                    body,
                }]
            }
            PStmt::Return(v) => {
                let v = match v {
                    Some(e) => Some(self.resolve_expr(e)?),
                    None => None,
                };
                vec![RStmt::Return(v)]
            }
            PStmt::Expr(e) => vec![RStmt::Eval(self.resolve_expr(e)?)],
            PStmt::Block(b) => self.resolve_block(b)?,
        })
    }

    fn resolve_expr(&mut self, e: &PExpr) -> Result<RExpr, ShaderError> {
        self.static_size += 1;
        Ok(match e {
            PExpr::Float(v) => RExpr::Lit(Value::Float(*v)),
            PExpr::Int(v) => RExpr::Lit(Value::Int(*v)),
            PExpr::Bool(v) => RExpr::Lit(Value::Bool(*v)),
            PExpr::Var(name) => RExpr::Load(self.resolve_ref(name)?),
            PExpr::Bin(op, a, b) => RExpr::Bin(
                BinKind::from_str(op),
                Box::new(self.resolve_expr(a)?),
                Box::new(self.resolve_expr(b)?),
            ),
            PExpr::Un(op, x) => {
                let x = self.resolve_expr(x)?;
                if *op == '-' {
                    RExpr::Neg(Box::new(x))
                } else {
                    RExpr::Not(Box::new(x))
                }
            }
            PExpr::Ternary(c, t, f) => RExpr::Ternary(
                Box::new(self.resolve_expr(c)?),
                Box::new(self.resolve_expr(t)?),
                Box::new(self.resolve_expr(f)?),
            ),
            PExpr::Swizzle(base, comps) => {
                RExpr::Swizzle(Box::new(self.resolve_expr(base)?), Mask::parse(comps))
            }
            PExpr::Call(name, args) => {
                // texture2D is special: the sampler argument must resolve
                // to a sampler2D uniform.
                if name == "texture2D" {
                    if args.len() != 2 {
                        return Err(ShaderError::resolve("texture2D takes (sampler2D, vec2)"));
                    }
                    let PExpr::Var(sname) = &args[0] else {
                        return Err(ShaderError::resolve("texture2D sampler must be a uniform name"));
                    };
                    let Some(idx) = self.uniforms.iter().position(|u| u.name == *sname) else {
                        return Err(ShaderError::resolve(format!("unknown sampler `{sname}`")));
                    };
                    if self.uniforms[idx].ty != GlslType::Sampler2D {
                        return Err(ShaderError::resolve(format!("`{sname}` is not a sampler2D")));
                    }
                    let coord = self.resolve_expr(&args[1])?;
                    return Ok(RExpr::Texture(idx as u16, Box::new(coord)));
                }
                // Constructors.
                if let Some(ty) = match name.as_str() {
                    "float" => Some(GlslType::Float),
                    "vec2" => Some(GlslType::Vec2),
                    "vec3" => Some(GlslType::Vec3),
                    "vec4" => Some(GlslType::Vec4),
                    "int" => Some(GlslType::Int),
                    "bool" => Some(GlslType::Bool),
                    _ => None,
                } {
                    let args = args
                        .iter()
                        .map(|a| self.resolve_expr(a))
                        .collect::<Result<Vec<_>, _>>()?;
                    return Ok(RExpr::Construct(ty, args));
                }
                // Builtins.
                if let Some(b) = Builtin::from_name(name) {
                    let arity = b.fun.arity();
                    if args.len() != arity {
                        return Err(ShaderError::resolve(format!(
                            "`{name}` takes {arity} argument(s), found {}",
                            args.len()
                        )));
                    }
                    let args = args
                        .iter()
                        .map(|a| self.resolve_expr(a))
                        .collect::<Result<Vec<_>, _>>()?;
                    return Ok(RExpr::Builtin(b, args));
                }
                // User functions: declaration-before-use (rejects recursion).
                let Some(&idx) = self.func_names.get(name) else {
                    return Err(ShaderError::resolve(format!(
                        "unknown function `{name}` (GLSL ES requires declaration before use; recursion is forbidden)"
                    )));
                };
                let expected = self.functions[idx].n_params;
                if args.len() != expected {
                    return Err(ShaderError::resolve(format!(
                        "`{name}` takes {expected} argument(s), found {}",
                        args.len()
                    )));
                }
                let args = args
                    .iter()
                    .map(|a| self.resolve_expr(a))
                    .collect::<Result<Vec<_>, _>>()?;
                RExpr::CallUser(idx, args)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_minimal_shader() {
        let s = compile("void main() { gl_FragColor = vec4(1.0, 0.0, 0.0, 1.0); }").unwrap();
        assert_eq!(s.functions[s.main_index].name, "main");
        assert!(s.uniforms.is_empty());
    }

    #[test]
    fn collects_uniforms_in_order() {
        let s = compile(
            "uniform sampler2D t0; uniform vec4 dims; uniform float alpha;
             varying vec2 v_texcoord;
             void main() { gl_FragColor = texture2D(t0, v_texcoord) * alpha + dims; }",
        )
        .unwrap();
        assert_eq!(s.uniforms.len(), 3);
        assert_eq!(s.uniform_index("dims"), Some(1));
        assert_eq!(s.varying_index("v_texcoord"), Some(0));
    }

    #[test]
    fn const_globals_evaluated() {
        let s = compile("const float K = 2.0 * 3.0; void main() { gl_FragColor = vec4(K); }").unwrap();
        assert_eq!(s.consts, vec![Value::Float(6.0)]);
    }

    #[test]
    fn unknown_identifier_rejected() {
        assert!(compile("void main() { gl_FragColor = vec4(oops); }").is_err());
    }

    #[test]
    fn recursion_rejected_by_declaration_order() {
        let e = compile(
            "float f(float x) { return f(x); }
             void main() { gl_FragColor = vec4(f(1.0)); }",
        )
        .unwrap_err();
        assert!(e.to_string().contains("unknown function"));
    }

    #[test]
    fn forward_call_rejected() {
        assert!(compile(
            "float f(float x) { return g(x); }
             float g(float x) { return x; }
             void main() { gl_FragColor = vec4(f(1.0)); }",
        )
        .is_err());
    }

    #[test]
    fn writing_uniform_rejected() {
        let e = compile("uniform float u; void main() { u = 1.0; gl_FragColor = vec4(u); }").unwrap_err();
        assert!(e.to_string().contains("cannot write"));
    }

    #[test]
    fn texture_requires_sampler_uniform() {
        assert!(compile("void main() { gl_FragColor = texture2D(nope, vec2(0.0)); }").is_err());
        assert!(compile(
            "uniform float notsampler;
             void main() { gl_FragColor = texture2D(notsampler, vec2(0.0)); }"
        )
        .is_err());
    }

    #[test]
    fn swizzled_store_resolves() {
        let s =
            compile("void main() { vec4 c = vec4(0.0); c.xy = vec2(1.0, 2.0); gl_FragColor = c; }").unwrap();
        let f = &s.functions[s.main_index];
        assert!(matches!(&f.body[1], RStmt::Store { mask: Some(m), .. } if m.len == 2));
    }

    #[test]
    fn locals_get_distinct_slots() {
        let s = compile(
            "void main() {
                 float a = 1.0;
                 float b = 2.0;
                 { float c = 3.0; gl_FragColor = vec4(a + b + c); }
             }",
        )
        .unwrap();
        assert_eq!(s.functions[s.main_index].n_slots, 3);
    }

    #[test]
    fn mask_parse() {
        let m = Mask::parse("wzyx");
        assert_eq!(m.len, 4);
        assert_eq!(m.lanes, [3, 2, 1, 0]);
        let m = Mask::parse("y");
        assert_eq!(m.len, 1);
        assert_eq!(m.lanes[0], 1);
    }
}
