//! Lexer, AST and parser for the GLSL ES 1.00 fragment-shader subset.
//!
//! The subset covers everything the Brook Auto code generator emits plus
//! what a hand-optimized GPGPU shader needs: global `precision`,
//! `uniform` / `varying` / `const` declarations, function definitions,
//! structured control flow and the full float/vector expression language
//! with swizzles and constructors. Matrices and arrays are intentionally
//! absent (see `value::GlslType`).

use crate::error::ShaderError;
use crate::value::GlslType;
use std::fmt;

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Ident(String),
    Type(GlslType),
    FloatLit(f32),
    IntLit(i32),
    BoolLit(bool),
    Uniform,
    Varying,
    Const,
    Precision,
    If,
    Else,
    For,
    Return,
    Discard,
    LParen,
    RParen,
    LBrace,
    RBrace,
    Semi,
    Comma,
    Dot,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    Plus,
    Minus,
    Star,
    Slash,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    Ne,
    AndAnd,
    OrOr,
    Bang,
    Question,
    Colon,
    PlusPlus,
    MinusMinus,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Tokenizes GLSL source.
///
/// # Errors
/// Returns [`ShaderError::Lex`] on unknown characters or malformed
/// literals; line/column information is embedded in the message.
pub fn lex(src: &str) -> Result<Vec<(Tok, u32)>, ShaderError> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if (c as char).is_whitespace() {
            i += 1;
            continue;
        }
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            i += 2;
            while i + 1 < b.len() && !(b[i] == b'*' && b[i + 1] == b'/') {
                if b[i] == b'\n' {
                    line += 1;
                }
                i += 1;
            }
            if i + 1 >= b.len() {
                return Err(ShaderError::lex(line, "unterminated block comment"));
            }
            i += 2;
            continue;
        }
        // `#` preprocessor lines (e.g. #version): skipped to end of line.
        if c == b'#' {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c.is_ascii_digit() || (c == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit()) {
            let start = i;
            let mut is_float = false;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            if i < b.len() && b[i] == b'.' {
                is_float = true;
                i += 1;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
            }
            if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
                let mut j = i + 1;
                if j < b.len() && (b[j] == b'+' || b[j] == b'-') {
                    j += 1;
                }
                if j < b.len() && b[j].is_ascii_digit() {
                    is_float = true;
                    i = j;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                }
            }
            let text = &src[start..i];
            if is_float {
                let v = text
                    .parse::<f32>()
                    .map_err(|_| ShaderError::lex(line, format!("bad float `{text}`")))?;
                toks.push((Tok::FloatLit(v), line));
            } else {
                let v = text
                    .parse::<i32>()
                    .map_err(|_| ShaderError::lex(line, format!("bad int `{text}`")))?;
                toks.push((Tok::IntLit(v), line));
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            let text = &src[start..i];
            let tok = match text {
                "uniform" => Tok::Uniform,
                "varying" => Tok::Varying,
                "const" => Tok::Const,
                "precision" => Tok::Precision,
                "if" => Tok::If,
                "else" => Tok::Else,
                "for" => Tok::For,
                "return" => Tok::Return,
                "discard" => Tok::Discard,
                "true" => Tok::BoolLit(true),
                "false" => Tok::BoolLit(false),
                "void" => Tok::Type(GlslType::Void),
                "float" => Tok::Type(GlslType::Float),
                "vec2" => Tok::Type(GlslType::Vec2),
                "vec3" => Tok::Type(GlslType::Vec3),
                "vec4" => Tok::Type(GlslType::Vec4),
                "int" => Tok::Type(GlslType::Int),
                "bool" => Tok::Type(GlslType::Bool),
                "sampler2D" => Tok::Type(GlslType::Sampler2D),
                "highp" | "mediump" | "lowp" => continue, // precision qualifiers are accepted and ignored
                "while" | "do" => {
                    return Err(ShaderError::lex(
                        line,
                        "GLSL ES 1.00 appendix A: only bounded `for` loops are supported",
                    ))
                }
                _ => Tok::Ident(text.to_owned()),
            };
            toks.push((tok, line));
            continue;
        }
        let two = |a: u8, b2: u8| -> bool { c == a && i + 1 < b.len() && b[i + 1] == b2 };
        let (tok, len) = if two(b'+', b'+') {
            (Tok::PlusPlus, 2)
        } else if two(b'-', b'-') {
            (Tok::MinusMinus, 2)
        } else if two(b'+', b'=') {
            (Tok::PlusAssign, 2)
        } else if two(b'-', b'=') {
            (Tok::MinusAssign, 2)
        } else if two(b'*', b'=') {
            (Tok::StarAssign, 2)
        } else if two(b'/', b'=') {
            (Tok::SlashAssign, 2)
        } else if two(b'<', b'=') {
            (Tok::Le, 2)
        } else if two(b'>', b'=') {
            (Tok::Ge, 2)
        } else if two(b'=', b'=') {
            (Tok::EqEq, 2)
        } else if two(b'!', b'=') {
            (Tok::Ne, 2)
        } else if two(b'&', b'&') {
            (Tok::AndAnd, 2)
        } else if two(b'|', b'|') {
            (Tok::OrOr, 2)
        } else {
            let t = match c {
                b'(' => Tok::LParen,
                b')' => Tok::RParen,
                b'{' => Tok::LBrace,
                b'}' => Tok::RBrace,
                b';' => Tok::Semi,
                b',' => Tok::Comma,
                b'.' => Tok::Dot,
                b'=' => Tok::Assign,
                b'+' => Tok::Plus,
                b'-' => Tok::Minus,
                b'*' => Tok::Star,
                b'/' => Tok::Slash,
                b'<' => Tok::Lt,
                b'>' => Tok::Gt,
                b'!' => Tok::Bang,
                b'?' => Tok::Question,
                b':' => Tok::Colon,
                other => {
                    return Err(ShaderError::lex(
                        line,
                        format!("unexpected character `{}`", other as char),
                    ))
                }
            };
            (t, 1)
        };
        toks.push((tok, line));
        i += len;
    }
    toks.push((Tok::Eof, line));
    Ok(toks)
}

// ---- AST -------------------------------------------------------------

/// Storage qualifier of a global declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalKind {
    Uniform,
    Varying,
    Const,
}

/// A global declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    pub kind: GlobalKind,
    pub ty: GlslType,
    pub name: String,
    /// Initializer (const globals only).
    pub init: Option<PExpr>,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct PFunction {
    pub return_ty: GlslType,
    pub name: String,
    pub params: Vec<(GlslType, String)>,
    pub body: Vec<PStmt>,
}

/// A parsed translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Unit {
    pub globals: Vec<Global>,
    pub functions: Vec<PFunction>,
}

/// Parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum PStmt {
    Decl {
        ty: GlslType,
        name: String,
        init: Option<PExpr>,
    },
    Assign {
        target: PExpr,
        op: char,
        value: PExpr,
    },
    If {
        cond: PExpr,
        then_body: Vec<PStmt>,
        else_body: Vec<PStmt>,
    },
    For {
        init: Box<PStmt>,
        cond: PExpr,
        step: Box<PStmt>,
        body: Vec<PStmt>,
    },
    Return(Option<PExpr>),
    Expr(PExpr),
    Block(Vec<PStmt>),
}

/// Parsed expression.
#[derive(Debug, Clone, PartialEq)]
pub enum PExpr {
    Float(f32),
    Int(i32),
    Bool(bool),
    Var(String),
    Bin(String, Box<PExpr>, Box<PExpr>),
    Un(char, Box<PExpr>),
    Ternary(Box<PExpr>, Box<PExpr>, Box<PExpr>),
    Call(String, Vec<PExpr>),
    Swizzle(Box<PExpr>, String),
}

/// Parses a GLSL ES fragment shader.
///
/// Binary and prefix operators parse by precedence climbing over
/// explicit stacks. What still nests is bounded by two limits, 256 each:
/// expression tree depth and statement nesting. They also bound the
/// recursion of the resolver, and of the interpreter within a function.
///
/// # Errors
/// Returns [`ShaderError::Parse`] describing the first syntax error,
/// including a source over either nesting limit.
pub fn parse(src: &str) -> Result<Unit, ShaderError> {
    let toks = lex(src)?;
    let mut p = P {
        toks,
        pos: 0,
        expr_frames: 0,
        stmt_depth: 0,
    };
    p.unit()
}

/// Maximum expression tree depth, counted as the Brook parser counts
/// it: a leaf is depth 1, every operator, call or swizzle node one more
/// than its deepest child, and a parenthesis one more only around a
/// leaf or another parenthesis.
const MAX_EXPR_DEPTH: u32 = 256;

/// Maximum statement nesting: a function body is level 1 and every
/// block nested in it — `{ .. }` or an `if`, `else` or `for` body — adds
/// one. Twice the Brook bound and more, because generated shaders nest
/// deeper than their source: each Brook loop becomes a gate `for`
/// around an `if`.
const MAX_STMT_DEPTH: u32 = 256;

struct P {
    toks: Vec<(Tok, u32)>,
    pos: usize,
    /// Nested [`P::sub_expr`] calls: the only recursion in expression
    /// parsing.
    expr_frames: u32,
    /// Blocks open around the current statement.
    stmt_depth: u32,
}

/// A parsed expression with the depth of its tree (see [`MAX_EXPR_DEPTH`]).
struct Sub {
    expr: PExpr,
    depth: u32,
    /// Written in parentheses.
    parenthesized: bool,
}

/// An operator waiting on the precedence-climbing stack.
#[derive(Clone, Copy)]
enum Pending {
    Prefix(char),
    /// A binary operator's spelling and precedence.
    Binary(&'static str, u8),
}

/// The binary operators and their precedence, loosest first. All are
/// left-associative.
fn binary_op(tok: &Tok) -> Option<(&'static str, u8)> {
    Some(match tok {
        Tok::OrOr => ("||", 1),
        Tok::AndAnd => ("&&", 2),
        Tok::EqEq => ("==", 3),
        Tok::Ne => ("!=", 3),
        Tok::Lt => ("<", 4),
        Tok::Le => ("<=", 4),
        Tok::Gt => (">", 4),
        Tok::Ge => (">=", 4),
        Tok::Plus => ("+", 5),
        Tok::Minus => ("-", 5),
        Tok::Star => ("*", 6),
        Tok::Slash => ("/", 6),
        _ => return None,
    })
}

impl P {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)].0
    }

    fn line(&self) -> u32 {
        self.toks[self.pos.min(self.toks.len() - 1)].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].0.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ShaderError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(ShaderError::parse(
                self.line(),
                format!("expected {t}, found {}", self.peek()),
            ))
        }
    }

    fn ident(&mut self) -> Result<String, ShaderError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(ShaderError::parse(
                self.line(),
                format!("expected identifier, found {other}"),
            )),
        }
    }

    fn ty(&mut self) -> Result<GlslType, ShaderError> {
        match self.bump() {
            Tok::Type(t) => Ok(t),
            other => Err(ShaderError::parse(
                self.line(),
                format!("expected type, found {other}"),
            )),
        }
    }

    fn unit(&mut self) -> Result<Unit, ShaderError> {
        let mut unit = Unit::default();
        loop {
            match self.peek().clone() {
                Tok::Eof => break,
                Tok::Precision => {
                    // `precision mediump float;` — qualifier already skipped
                    // by the lexer, so: precision <type> ;
                    self.bump();
                    let _ = self.ty()?;
                    self.expect(&Tok::Semi)?;
                }
                Tok::Uniform | Tok::Varying | Tok::Const => {
                    let kind = match self.bump() {
                        Tok::Uniform => GlobalKind::Uniform,
                        Tok::Varying => GlobalKind::Varying,
                        _ => GlobalKind::Const,
                    };
                    let ty = self.ty()?;
                    let name = self.ident()?;
                    let init = if self.eat(&Tok::Assign) {
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    if kind == GlobalKind::Const && init.is_none() {
                        return Err(ShaderError::parse(
                            self.line(),
                            "const globals need an initializer",
                        ));
                    }
                    self.expect(&Tok::Semi)?;
                    unit.globals.push(Global { kind, ty, name, init });
                }
                Tok::Type(_) => {
                    let return_ty = self.ty()?;
                    let name = self.ident()?;
                    self.expect(&Tok::LParen)?;
                    let mut params = Vec::new();
                    if !self.eat(&Tok::RParen) {
                        loop {
                            let pt = self.ty()?;
                            let pn = self.ident()?;
                            params.push((pt, pn));
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(&Tok::RParen)?;
                    }
                    let body = self.block()?;
                    unit.functions.push(PFunction {
                        return_ty,
                        name,
                        params,
                        body,
                    });
                }
                other => {
                    return Err(ShaderError::parse(
                        self.line(),
                        format!("unexpected token at top level: {other}"),
                    ));
                }
            }
        }
        if !unit.functions.iter().any(|f| f.name == "main") {
            return Err(ShaderError::parse(0, "fragment shader has no `main` function"));
        }
        Ok(unit)
    }

    /// Enters one more level of statement nesting, or fails when that
    /// would pass [`MAX_STMT_DEPTH`].
    fn enter_nesting(&mut self) -> Result<(), ShaderError> {
        if self.stmt_depth >= MAX_STMT_DEPTH {
            return Err(ShaderError::parse(
                self.line(),
                format!("statement nesting exceeds the depth limit {MAX_STMT_DEPTH}"),
            ));
        }
        self.stmt_depth += 1;
        Ok(())
    }

    fn block(&mut self) -> Result<Vec<PStmt>, ShaderError> {
        self.enter_nesting()?;
        self.expect(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&Tok::RBrace) {
            if matches!(self.peek(), Tok::Eof) {
                return Err(ShaderError::parse(self.line(), "unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        self.stmt_depth -= 1;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<PStmt, ShaderError> {
        match self.peek().clone() {
            Tok::LBrace => Ok(PStmt::Block(self.block()?)),
            Tok::If => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let then_body = self.block_or_single()?;
                // `else if` chains nest: each `if` is the single
                // statement of the previous one's `else` body.
                let else_body = if self.eat(&Tok::Else) {
                    self.block_or_single()?
                } else {
                    Vec::new()
                };
                Ok(PStmt::If {
                    cond,
                    then_body,
                    else_body,
                })
            }
            Tok::For => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let init = Box::new(self.simple_stmt()?);
                self.expect(&Tok::Semi)?;
                let cond = self.expr()?;
                self.expect(&Tok::Semi)?;
                let step = Box::new(self.simple_stmt()?);
                self.expect(&Tok::RParen)?;
                let body = self.block_or_single()?;
                Ok(PStmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Tok::Return => {
                self.bump();
                let v = if matches!(self.peek(), Tok::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                Ok(PStmt::Return(v))
            }
            Tok::Discard => Err(ShaderError::parse(
                self.line(),
                "`discard` is not supported by the GPGPU subset",
            )),
            _ => {
                let s = self.simple_stmt()?;
                self.expect(&Tok::Semi)?;
                Ok(s)
            }
        }
    }

    fn block_or_single(&mut self) -> Result<Vec<PStmt>, ShaderError> {
        if matches!(self.peek(), Tok::LBrace) {
            return self.block();
        }
        self.enter_nesting()?;
        let s = self.stmt()?;
        self.stmt_depth -= 1;
        Ok(vec![s])
    }

    fn simple_stmt(&mut self) -> Result<PStmt, ShaderError> {
        if let Tok::Type(_) = self.peek() {
            let ty = self.ty()?;
            let name = self.ident()?;
            let init = if self.eat(&Tok::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(PStmt::Decl { ty, name, init });
        }
        let lhs = self.expr()?;
        let op = match self.peek() {
            Tok::Assign => Some('='),
            Tok::PlusAssign => Some('+'),
            Tok::MinusAssign => Some('-'),
            Tok::StarAssign => Some('*'),
            Tok::SlashAssign => Some('/'),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let value = self.expr()?;
            return Ok(PStmt::Assign {
                target: lhs,
                op,
                value,
            });
        }
        if matches!(self.peek(), Tok::PlusPlus | Tok::MinusMinus) {
            let inc = matches!(self.bump(), Tok::PlusPlus);
            let one = PExpr::Int(1);
            return Ok(PStmt::Assign {
                target: lhs,
                op: if inc { '+' } else { '-' },
                value: one,
            });
        }
        Ok(PStmt::Expr(lhs))
    }

    fn expr(&mut self) -> Result<PExpr, ShaderError> {
        self.sub_expr().map(|s| s.expr)
    }

    /// A full expression in its own frame: a statement's, or a
    /// parenthesized one, a call argument or a ternary arm. Frames nest
    /// by recursion, so their count is capped; each adds at least one
    /// level of tree depth, so the cap rejects nothing that
    /// [`MAX_EXPR_DEPTH`] would accept.
    fn sub_expr(&mut self) -> Result<Sub, ShaderError> {
        if self.expr_frames >= MAX_EXPR_DEPTH {
            return Err(self.depth_error());
        }
        self.expr_frames += 1;
        let result = self.ternary();
        self.expr_frames -= 1;
        result
    }

    fn depth_error(&self) -> ShaderError {
        ShaderError::parse(
            self.line(),
            format!("expression nesting exceeds the depth limit {MAX_EXPR_DEPTH}"),
        )
    }

    /// A node one level above children whose deepest is `child_depth`
    /// deep, or an error when that passes [`MAX_EXPR_DEPTH`].
    fn node(&self, expr: PExpr, child_depth: u32) -> Result<Sub, ShaderError> {
        let depth = child_depth + 1;
        if depth > MAX_EXPR_DEPTH {
            return Err(self.depth_error());
        }
        Ok(Sub {
            expr,
            depth,
            parenthesized: false,
        })
    }

    fn ternary(&mut self) -> Result<Sub, ShaderError> {
        let cond = self.binary()?;
        if !self.eat(&Tok::Question) {
            return Ok(cond);
        }
        let t = self.sub_expr()?;
        self.expect(&Tok::Colon)?;
        let e = self.sub_expr()?;
        let depth = cond.depth.max(t.depth).max(e.depth);
        let expr = PExpr::Ternary(Box::new(cond.expr), Box::new(t.expr), Box::new(e.expr));
        self.node(expr, depth)
    }

    /// Binary and prefix operators by precedence climbing over explicit
    /// operand and operator stacks: an operator is applied once the next
    /// binary operator binds no tighter.
    fn binary(&mut self) -> Result<Sub, ShaderError> {
        let mut operands: Vec<Sub> = Vec::new();
        let mut ops: Vec<Pending> = Vec::new();
        loop {
            let mut prefixes = 0;
            loop {
                let op = match self.peek() {
                    Tok::Minus => '-',
                    Tok::Bang => '!',
                    _ => break,
                };
                // Each prefix adds a level, so a chain this long is over
                // the bound before its operand is even read.
                prefixes += 1;
                if prefixes >= MAX_EXPR_DEPTH {
                    return Err(self.depth_error());
                }
                self.bump();
                ops.push(Pending::Prefix(op));
            }
            operands.push(self.postfix_expr()?);
            let next = binary_op(self.peek());
            while let Some(&top) = ops.last() {
                let applies = match top {
                    Pending::Prefix(_) => true,
                    Pending::Binary(_, prec) => next.is_none_or(|(_, next_prec)| prec >= next_prec),
                };
                if !applies {
                    break;
                }
                ops.pop();
                let rhs = operands.pop().expect("an operand per operator");
                let applied = match top {
                    Pending::Prefix(op) => self.node(PExpr::Un(op, Box::new(rhs.expr)), rhs.depth)?,
                    Pending::Binary(name, _) => {
                        let lhs = operands.pop().expect("an operand per operator");
                        let depth = lhs.depth.max(rhs.depth);
                        let expr = PExpr::Bin(name.to_owned(), Box::new(lhs.expr), Box::new(rhs.expr));
                        self.node(expr, depth)?
                    }
                };
                operands.push(applied);
            }
            match next {
                Some((name, prec)) => {
                    self.bump();
                    ops.push(Pending::Binary(name, prec));
                }
                None => return Ok(operands.pop().expect("one operand left")),
            }
        }
    }

    fn postfix_expr(&mut self) -> Result<Sub, ShaderError> {
        let mut e = self.primary_expr()?;
        while self.eat(&Tok::Dot) {
            let name = self.ident()?;
            if name.len() > 4
                || !name.bytes().all(|c| {
                    matches!(
                        c,
                        b'x' | b'y' | b'z' | b'w' | b'r' | b'g' | b'b' | b'a' | b's' | b't' | b'p' | b'q'
                    )
                })
            {
                return Err(ShaderError::parse(
                    self.line(),
                    format!("invalid swizzle `.{name}`"),
                ));
            }
            let normalized: String = name
                .bytes()
                .map(|c| match c {
                    b'x' | b'r' | b's' => 'x',
                    b'y' | b'g' | b't' => 'y',
                    b'z' | b'b' | b'p' => 'z',
                    _ => 'w',
                })
                .collect();
            e = self.node(PExpr::Swizzle(Box::new(e.expr), normalized), e.depth)?;
        }
        Ok(e)
    }

    /// `( args )` after a callee, as a call node.
    fn call(&mut self, callee: String) -> Result<Sub, ShaderError> {
        let mut args = Vec::new();
        let mut depth = 0;
        if !self.eat(&Tok::RParen) {
            loop {
                let arg = self.sub_expr()?;
                depth = depth.max(arg.depth);
                args.push(arg.expr);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        self.node(PExpr::Call(callee, args), depth)
    }

    fn primary_expr(&mut self) -> Result<Sub, ShaderError> {
        let leaf = |expr| Sub {
            expr,
            depth: 1,
            parenthesized: false,
        };
        match self.bump() {
            Tok::FloatLit(v) => Ok(leaf(PExpr::Float(v))),
            Tok::IntLit(v) => Ok(leaf(PExpr::Int(v))),
            Tok::BoolLit(v) => Ok(leaf(PExpr::Bool(v))),
            Tok::LParen => {
                let inner = self.sub_expr()?;
                self.expect(&Tok::RParen)?;
                // A parenthesis around a node adds no level of its own.
                let depth = match inner.depth == 1 || inner.parenthesized {
                    true => inner.depth + 1,
                    false => inner.depth,
                };
                if depth > MAX_EXPR_DEPTH {
                    return Err(self.depth_error());
                }
                Ok(Sub {
                    expr: inner.expr,
                    depth,
                    parenthesized: true,
                })
            }
            Tok::Type(t) => {
                // Constructor call: vec4(...), float(...), int(...).
                self.expect(&Tok::LParen)?;
                self.call(t.as_str().to_owned())
            }
            Tok::Ident(name) => {
                if self.eat(&Tok::LParen) {
                    self.call(name)
                } else {
                    Ok(leaf(PExpr::Var(name)))
                }
            }
            other => Err(ShaderError::parse(
                self.line(),
                format!("expected expression, found {other}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_and_parses_minimal_shader() {
        let u = parse("precision mediump float; void main() { gl_FragColor = vec4(1.0); }").unwrap();
        assert_eq!(u.functions.len(), 1);
        assert_eq!(u.functions[0].name, "main");
    }

    #[test]
    fn parses_uniforms_and_varyings() {
        let u = parse(
            "uniform sampler2D tex0; uniform vec4 dims; varying vec2 v_texcoord;
             void main() { gl_FragColor = texture2D(tex0, v_texcoord); }",
        )
        .unwrap();
        assert_eq!(u.globals.len(), 3);
        assert_eq!(u.globals[0].kind, GlobalKind::Uniform);
        assert_eq!(u.globals[0].ty, GlslType::Sampler2D);
        assert_eq!(u.globals[2].kind, GlobalKind::Varying);
    }

    #[test]
    fn parses_for_loop_and_functions() {
        let u = parse(
            "float acc(float x) { return x * 2.0; }
             void main() {
                 float s = 0.0;
                 for (int i = 0; i < 8; i++) { s += acc(1.0); }
                 gl_FragColor = vec4(s);
             }",
        )
        .unwrap();
        assert_eq!(u.functions.len(), 2);
    }

    #[test]
    fn requires_main() {
        let e = parse("void helper() { }").unwrap_err();
        assert!(e.to_string().contains("main"));
    }

    #[test]
    fn rejects_while() {
        assert!(parse("void main() { while (true) { } }").is_err());
    }

    #[test]
    fn rejects_discard() {
        assert!(parse("void main() { discard; }").is_err());
    }

    #[test]
    fn precision_qualifiers_ignored() {
        parse(
            "precision highp float; uniform highp vec2 d; void main() { gl_FragColor = vec4(d, 0.0, 0.0); }",
        )
        .unwrap();
    }

    #[test]
    fn swizzle_normalization_rgba() {
        let u = parse("void main() { vec4 c = vec4(1.0); gl_FragColor = vec4(c.rgb, c.a); }").unwrap();
        // .rgb normalized to .xyz
        let f = &u.functions[0];
        let PStmt::Assign { value, .. } = &f.body[1] else {
            panic!()
        };
        let PExpr::Call(_, args) = value else { panic!() };
        assert!(matches!(&args[0], PExpr::Swizzle(_, s) if s == "xyz"));
        assert!(matches!(&args[1], PExpr::Swizzle(_, s) if s == "w"));
    }

    #[test]
    fn const_global_requires_init() {
        assert!(parse("const float K; void main() { gl_FragColor = vec4(K); }").is_err());
        parse("const float K = 2.5; void main() { gl_FragColor = vec4(K); }").unwrap();
    }

    #[test]
    fn preprocessor_lines_skipped() {
        parse("#version 100\nvoid main() { gl_FragColor = vec4(0.0); }").unwrap();
    }

    #[test]
    fn reports_line_numbers() {
        let e = parse("void main() {\n\n  @bad\n}").unwrap_err();
        assert!(e.to_string().contains("3"), "{e}");
    }
}
