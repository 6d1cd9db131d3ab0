//! Recursive-descent parser for the Brook Auto kernel language.
//!
//! The grammar is a restricted C subset: kernels, helper functions,
//! declarations, structured control flow and expressions. Pointer syntax,
//! `goto` and other constructs the Brook Auto subset forbids are recognized
//! and rejected with certification-rule diagnostics (BA001/BA007) so the
//! error a user sees names the violated ISO 26262-motivated rule rather
//! than a generic syntax error.
//!
//! Binary and prefix operators parse by precedence climbing over explicit
//! stacks, so an operator chain costs no recursion. What still nests —
//! statements inside statements, and parenthesized sub-expressions, call
//! arguments, indices and ternary arms — is bounded by
//! [`MAX_STMT_DEPTH`] (P012) and [`MAX_EXPR_DEPTH`] (P011).

use crate::ast::*;
use crate::diag::{CompileError, Diagnostic};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Keyword, Token, TokenKind};

/// Parses a Brook translation unit.
///
/// Parsing runs on the caller's stack. Its recursion, and that of every
/// later layer walking the tree (type checking, certification, lowering,
/// the AST oracle), is bounded by the two nesting limits: expression
/// tree depth [`MAX_EXPR_DEPTH`] (P011) and statement nesting
/// [`MAX_STMT_DEPTH`] (P012), times the certified helper call depth
/// where helpers are inlined. A source over either limit is rejected,
/// never a stack overflow, on any thread with the default 2 MiB stack.
///
/// # Errors
/// Returns a [`CompileError`] carrying every lexical and syntactic
/// diagnostic when the source is not a valid Brook Auto program.
///
/// ```
/// let src = "kernel void copy(float a<>, out float b<>) { b = a; }";
/// let program = brook_lang::parse(src)?;
/// assert_eq!(program.kernels().count(), 1);
/// # Ok::<(), brook_lang::diag::CompileError>(())
/// ```
pub fn parse(src: &str) -> Result<Program, CompileError> {
    let (tokens, mut diags) = lex(src);
    let mut parser = Parser {
        tokens,
        pos: 0,
        diags: Vec::new(),
        next_id: 0,
        expr_frames: 0,
        stmt_depth: 0,
    };
    let program = parser.program();
    diags.extend(parser.diags);
    if diags.iter().any(|d| d.severity == crate::diag::Severity::Error) {
        Err(CompileError::new(diags))
    } else {
        Ok(program)
    }
}

/// Maximum expression tree depth the parser accepts (P011). A leaf is
/// depth 1; every operator, call, index or swizzle node is one more than
/// its deepest operand, argument or base. A parenthesis counts as a
/// level when it wraps a leaf or another parenthesis; around a node it
/// adds nothing, as the node already counted its level. A bound here
/// keeps the compiler itself within statically verifiable resources —
/// the same discipline the language imposes on kernels (BA003/BA009).
pub const MAX_EXPR_DEPTH: u32 = 128;

/// Maximum statement nesting depth the parser accepts (P012). A kernel
/// or function body is level 1; every block nested in it — `{ .. }` or
/// the body of an `if`, `else`, `for`, `while` or `do` — adds a level.
pub const MAX_STMT_DEPTH: u32 = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    diags: Vec<Diagnostic>,
    next_id: NodeId,
    /// Nested [`Parser::sub_expr`] calls: the only recursion in
    /// expression parsing.
    expr_frames: u32,
    /// Blocks open around the current statement.
    stmt_depth: u32,
}

/// A parsed expression with the depth of its tree (see [`MAX_EXPR_DEPTH`]).
struct Sub {
    expr: Expr,
    depth: u32,
    /// Written in parentheses.
    parenthesized: bool,
}

/// An operator waiting on the precedence-climbing stack.
#[derive(Clone, Copy)]
enum Pending {
    /// A prefix operator and the span of its token.
    Prefix(UnOp, Span),
    /// A binary operator and its precedence.
    Binary(BinOp, u8),
}

/// The binary operators and their precedence, loosest first. All are
/// left-associative.
fn binary_op(tok: &TokenKind) -> Option<(BinOp, u8)> {
    Some(match tok {
        TokenKind::PipePipe => (BinOp::Or, 1),
        TokenKind::AmpAmp => (BinOp::And, 2),
        TokenKind::EqEq => (BinOp::Eq, 3),
        TokenKind::Ne => (BinOp::Ne, 3),
        TokenKind::Lt => (BinOp::Lt, 4),
        TokenKind::Le => (BinOp::Le, 4),
        TokenKind::Gt => (BinOp::Gt, 4),
        TokenKind::Ge => (BinOp::Ge, 4),
        TokenKind::Plus => (BinOp::Add, 5),
        TokenKind::Minus => (BinOp::Sub, 5),
        TokenKind::Star => (BinOp::Mul, 6),
        TokenKind::Slash => (BinOp::Div, 6),
        TokenKind::Percent => (BinOp::Rem, 6),
        _ => return None,
    })
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, ahead: usize) -> &TokenKind {
        &self.tokens[(self.pos + ahead).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        self.eat(&TokenKind::Keyword(kw))
    }

    fn expect(&mut self, kind: &TokenKind) -> bool {
        if self.eat(kind) {
            true
        } else {
            self.error("P001", format!("expected {kind}, found {}", self.peek()));
            false
        }
    }

    fn error(&mut self, code: &str, msg: impl Into<String>) {
        let span = self.span();
        self.diags.push(Diagnostic::error(code, msg, span));
    }

    fn fresh_id(&mut self) -> NodeId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn expr_node(&mut self, kind: ExprKind, span: Span) -> Expr {
        Expr {
            id: self.fresh_id(),
            kind,
            span,
        }
    }

    /// Skips tokens through the `}` that closes the first `{` skipped
    /// (or an unmatched `}`), for error recovery.
    fn skip_braced(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                TokenKind::Eof => return,
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    self.bump();
                    if depth <= 1 {
                        return;
                    }
                    depth -= 1;
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Skips one statement that does not start with `{`, for error
    /// recovery: through the first `;` or `}` outside any brackets —
    /// on past an `else` that follows, and past the body of a `do` to
    /// its `;` — but never past the `}` of the enclosing block.
    fn skip_stmt(&mut self) {
        let is_do = matches!(self.peek(), TokenKind::Keyword(Keyword::Do));
        let mut depth = 0usize;
        loop {
            let ends = match self.peek() {
                TokenKind::Eof => return,
                TokenKind::RBrace if depth == 0 => return,
                TokenKind::LParen | TokenKind::LBracket | TokenKind::LBrace => {
                    depth += 1;
                    false
                }
                TokenKind::RParen | TokenKind::RBracket => {
                    depth = depth.saturating_sub(1);
                    false
                }
                TokenKind::RBrace => {
                    depth -= 1;
                    depth == 0 && !is_do
                }
                TokenKind::Semicolon => depth == 0,
                _ => false,
            };
            self.bump();
            if ends && !matches!(self.peek(), TokenKind::Keyword(Keyword::Else)) {
                return;
            }
        }
    }

    // ---- items ------------------------------------------------------

    fn program(&mut self) -> Program {
        let mut items = Vec::new();
        while !matches!(self.peek(), TokenKind::Eof) {
            let before = self.pos;
            match self.item() {
                Some(item) => items.push(item),
                None => {
                    if self.pos == before {
                        self.bump();
                    }
                    self.skip_braced();
                }
            }
        }
        Program {
            items,
            next_node_id: self.next_id,
        }
    }

    fn item(&mut self) -> Option<Item> {
        let start = self.span();
        let is_reduce = self.eat_kw(Keyword::Reduce);
        if is_reduce || self.eat_kw(Keyword::Kernel) {
            // `reduce void` may also be written `kernel reduce void`? Brook
            // uses `reduce void name(...)`. Accept both orders.
            let is_reduce = is_reduce || self.eat_kw(Keyword::Reduce);
            if !self.eat_kw(Keyword::Void) {
                self.error("P002", "kernels must return `void`");
                return None;
            }
            let kernel = self.kernel_def(is_reduce, start)?;
            return Some(Item::Kernel(kernel));
        }
        // Helper function: `<type|void> name(params) { ... }`.
        let return_ty = if self.eat_kw(Keyword::Void) {
            None
        } else {
            Some(self.parse_type()?)
        };
        let name = self.ident()?;
        self.expect(&TokenKind::LParen);
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let ty = self.parse_type()?;
                let pname = self.ident()?;
                params.push((pname, ty));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen);
        }
        let body = self.block()?;
        let span = start.merge(self.prev_span());
        Some(Item::Function(FunctionDef {
            name,
            return_ty,
            params,
            body,
            span,
        }))
    }

    fn kernel_def(&mut self, is_reduce: bool, start: Span) -> Option<KernelDef> {
        let name = self.ident()?;
        self.expect(&TokenKind::LParen);
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                params.push(self.param()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen);
        }
        let body = self.block()?;
        let span = start.merge(self.prev_span());
        Some(KernelDef {
            name,
            is_reduce,
            params,
            body,
            span,
        })
    }

    fn param(&mut self) -> Option<Param> {
        let start = self.span();
        let is_out = self.eat_kw(Keyword::Out);
        let is_reduce = self.eat_kw(Keyword::Reduce);
        self.eat_kw(Keyword::Const);
        let ty = self.parse_type()?;
        if self.eat(&TokenKind::Star) {
            self.error(
                "BA001",
                "pointer parameters are forbidden in Brook Auto (ISO 26262 restricted pointer use)",
            );
            return None;
        }
        let name = self.ident()?;
        let kind = if self.eat(&TokenKind::Lt) {
            // `<>` stream marker.
            self.expect(&TokenKind::Gt);
            if is_reduce {
                ParamKind::ReduceOut
            } else if is_out {
                ParamKind::OutStream
            } else {
                ParamKind::Stream
            }
        } else if matches!(self.peek(), TokenKind::LBracket) {
            let mut rank: u8 = 0;
            while self.eat(&TokenKind::LBracket) {
                // Optional extent expression is ignored: Brook gathers are
                // unsized in the signature; sizes come from the runtime.
                while !matches!(self.peek(), TokenKind::RBracket | TokenKind::Eof) {
                    self.bump();
                }
                self.expect(&TokenKind::RBracket);
                rank += 1;
            }
            if rank > 4 {
                self.error("P005", "gather arrays support at most 4 dimensions");
                rank = 4;
            }
            ParamKind::Gather { rank }
        } else if is_out || is_reduce {
            self.error("P006", "`out`/`reduce` parameters must be streams (`<>`)");
            ParamKind::Scalar
        } else {
            ParamKind::Scalar
        };
        let span = start.merge(self.prev_span());
        Some(Param { name, ty, kind, span })
    }

    fn parse_type(&mut self) -> Option<Type> {
        let t = match self.peek() {
            TokenKind::Keyword(Keyword::Float) => Type::FLOAT,
            TokenKind::Keyword(Keyword::Float2) => Type::FLOAT2,
            TokenKind::Keyword(Keyword::Float3) => Type::FLOAT3,
            TokenKind::Keyword(Keyword::Float4) => Type::FLOAT4,
            TokenKind::Keyword(Keyword::Int) => Type::INT,
            TokenKind::Keyword(Keyword::Bool) => Type::BOOL,
            other => {
                let msg = format!("expected type, found {other}");
                self.error("P003", msg);
                return None;
            }
        };
        self.bump();
        Some(t)
    }

    fn ident(&mut self) -> Option<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Some(s)
            }
            other => {
                let msg = format!("expected identifier, found {other}");
                self.error("P004", msg);
                None
            }
        }
    }

    // ---- statements --------------------------------------------------

    /// Enters one more level of statement nesting, or reports P012 when
    /// that would pass [`MAX_STMT_DEPTH`].
    fn enter_nesting(&mut self) -> bool {
        if self.stmt_depth >= MAX_STMT_DEPTH {
            self.error(
                "P012",
                format!("statement nesting exceeds the depth limit {MAX_STMT_DEPTH}"),
            );
            return false;
        }
        self.stmt_depth += 1;
        true
    }

    /// An empty block standing in for a body skipped past P012, so the
    /// statement around it still parses.
    fn skipped_body(&self, start: Span) -> Option<Block> {
        Some(Block {
            stmts: Vec::new(),
            span: start.merge(self.prev_span()),
        })
    }

    fn block(&mut self) -> Option<Block> {
        let start = self.span();
        if !self.enter_nesting() {
            if matches!(self.peek(), TokenKind::LBrace) {
                self.skip_braced();
            }
            return self.skipped_body(start);
        }
        let block = self.block_body();
        self.stmt_depth -= 1;
        block
    }

    fn block_body(&mut self) -> Option<Block> {
        let start = self.span();
        if !self.expect(&TokenKind::LBrace) {
            return None;
        }
        let mut stmts = Vec::new();
        while !matches!(self.peek(), TokenKind::RBrace | TokenKind::Eof) {
            let before = self.pos;
            match self.stmt() {
                Some(s) => stmts.push(s),
                None => {
                    // Recover to the next `;` or `}`.
                    if self.pos == before {
                        self.bump();
                    }
                    while !matches!(
                        self.peek(),
                        TokenKind::Semicolon | TokenKind::RBrace | TokenKind::Eof
                    ) {
                        self.bump();
                    }
                    self.eat(&TokenKind::Semicolon);
                }
            }
        }
        self.expect(&TokenKind::RBrace);
        Some(Block {
            stmts,
            span: start.merge(self.prev_span()),
        })
    }

    fn stmt(&mut self) -> Option<Stmt> {
        let start = self.span();
        match self.peek() {
            TokenKind::Keyword(Keyword::Goto) => {
                self.error("BA007", "`goto` is forbidden in Brook Auto (MISRA C rule 15.1)");
                None
            }
            TokenKind::LBrace => Some(Stmt::Block(self.block()?)),
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect(&TokenKind::LParen);
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen);
                let then_block = self.block_or_single()?;
                // `else if` chains nest: each `if` is the single
                // statement of the previous one's `else` block.
                let else_block = if self.eat_kw(Keyword::Else) {
                    Some(self.block_or_single()?)
                } else {
                    None
                };
                Some(Stmt::If {
                    cond,
                    then_block,
                    else_block,
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.expect(&TokenKind::LParen);
                let init = if self.eat(&TokenKind::Semicolon) {
                    None
                } else {
                    let s = self.simple_stmt()?;
                    self.expect(&TokenKind::Semicolon);
                    Some(Box::new(s))
                };
                let cond = if matches!(self.peek(), TokenKind::Semicolon) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&TokenKind::Semicolon);
                let step = if matches!(self.peek(), TokenKind::RParen) {
                    None
                } else {
                    Some(Box::new(self.simple_stmt()?))
                };
                self.expect(&TokenKind::RParen);
                let body = self.block_or_single()?;
                Some(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect(&TokenKind::LParen);
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen);
                let body = self.block_or_single()?;
                Some(Stmt::While {
                    cond,
                    body,
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::Keyword(Keyword::Do) => {
                self.bump();
                let body = self.block()?;
                if !self.eat_kw(Keyword::While) {
                    self.error("P007", "expected `while` after `do` body");
                    return None;
                }
                self.expect(&TokenKind::LParen);
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen);
                self.expect(&TokenKind::Semicolon);
                Some(Stmt::DoWhile {
                    body,
                    cond,
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if matches!(self.peek(), TokenKind::Semicolon) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&TokenKind::Semicolon);
                Some(Stmt::Return {
                    value,
                    span: start.merge(self.prev_span()),
                })
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect(&TokenKind::Semicolon);
                Some(s)
            }
        }
    }

    /// A single statement used as an `if`, `else` or loop body is wrapped
    /// in a block.
    fn block_or_single(&mut self) -> Option<Block> {
        if matches!(self.peek(), TokenKind::LBrace) {
            return self.block();
        }
        let start = self.span();
        if !self.enter_nesting() {
            self.skip_stmt();
            return self.skipped_body(start);
        }
        let s = self.stmt();
        self.stmt_depth -= 1;
        let s = s?;
        let span = s.span();
        Some(Block { stmts: vec![s], span })
    }

    /// Declaration, assignment, increment or expression — the statement
    /// forms allowed in `for` headers.
    fn simple_stmt(&mut self) -> Option<Stmt> {
        let start = self.span();
        if matches!(
            self.peek(),
            TokenKind::Keyword(
                Keyword::Float
                    | Keyword::Float2
                    | Keyword::Float3
                    | Keyword::Float4
                    | Keyword::Int
                    | Keyword::Bool
                    | Keyword::Const
            )
        ) {
            self.eat_kw(Keyword::Const);
            let ty = self.parse_type()?;
            if self.eat(&TokenKind::Star) {
                self.error(
                    "BA001",
                    "pointer declarations are forbidden in Brook Auto (ISO 26262 restricted pointer use)",
                );
                return None;
            }
            let name = self.ident()?;
            if matches!(self.peek(), TokenKind::LBracket) {
                self.error(
                    "BA008",
                    "local arrays are forbidden in Brook Auto (no statically unverifiable storage)",
                );
                return None;
            }
            let init = if self.eat(&TokenKind::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            return Some(Stmt::Decl {
                name,
                ty,
                init,
                span: start.merge(self.prev_span()),
            });
        }
        // Assignment / inc-dec / expression.
        let lhs = self.expr()?;
        let op = match self.peek() {
            TokenKind::Assign => Some(AssignOp::Assign),
            TokenKind::PlusAssign => Some(AssignOp::AddAssign),
            TokenKind::MinusAssign => Some(AssignOp::SubAssign),
            TokenKind::StarAssign => Some(AssignOp::MulAssign),
            TokenKind::SlashAssign => Some(AssignOp::DivAssign),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let value = self.expr()?;
            if !lhs.is_lvalue() {
                self.error("P008", "left-hand side of assignment is not assignable");
            }
            return Some(Stmt::Assign {
                target: lhs,
                op,
                value,
                span: start.merge(self.prev_span()),
            });
        }
        if matches!(self.peek(), TokenKind::PlusPlus | TokenKind::MinusMinus) {
            let inc = matches!(self.bump(), TokenKind::PlusPlus);
            if !lhs.is_lvalue() {
                self.error("P008", "increment target is not assignable");
            }
            let span = start.merge(self.prev_span());
            let one = self.expr_node(ExprKind::IntLit(1), span);
            let op = if inc {
                AssignOp::AddAssign
            } else {
                AssignOp::SubAssign
            };
            return Some(Stmt::Assign {
                target: lhs,
                op,
                value: one,
                span,
            });
        }
        Some(Stmt::Expr {
            span: start.merge(lhs.span),
            expr: lhs,
        })
    }

    // ---- expressions --------------------------------------------------

    fn expr(&mut self) -> Option<Expr> {
        self.sub_expr().map(|s| s.expr)
    }

    /// A full expression in its own frame: the statement-level one, or a
    /// parenthesized one, a call argument, an index or a ternary arm.
    /// Frames nest by recursion, so their count is capped; each frame
    /// adds at least one level of tree depth, so the cap rejects nothing
    /// that [`MAX_EXPR_DEPTH`] would accept.
    fn sub_expr(&mut self) -> Option<Sub> {
        if self.expr_frames >= MAX_EXPR_DEPTH {
            self.depth_error();
            return None;
        }
        self.expr_frames += 1;
        let result = self.ternary();
        self.expr_frames -= 1;
        result
    }

    fn depth_error(&mut self) {
        self.error(
            "P011",
            format!("expression nesting exceeds the depth limit {MAX_EXPR_DEPTH}"),
        );
    }

    fn leaf(&mut self, kind: ExprKind, span: Span) -> Sub {
        Sub {
            expr: self.expr_node(kind, span),
            depth: 1,
            parenthesized: false,
        }
    }

    /// A node one level above children whose deepest is `child_depth`
    /// deep, or P011 when that passes [`MAX_EXPR_DEPTH`].
    fn node(&mut self, kind: ExprKind, span: Span, child_depth: u32) -> Option<Sub> {
        let depth = child_depth + 1;
        if depth > MAX_EXPR_DEPTH {
            self.depth_error();
            return None;
        }
        Some(Sub {
            expr: self.expr_node(kind, span),
            depth,
            parenthesized: false,
        })
    }

    fn ternary(&mut self) -> Option<Sub> {
        let cond = self.binary()?;
        if !self.eat(&TokenKind::Question) {
            return Some(cond);
        }
        let then_expr = self.sub_expr()?;
        self.expect(&TokenKind::Colon);
        let else_expr = self.sub_expr()?;
        let span = cond.expr.span.merge(else_expr.expr.span);
        let depth = cond.depth.max(then_expr.depth).max(else_expr.depth);
        self.node(
            ExprKind::Ternary {
                cond: Box::new(cond.expr),
                then_expr: Box::new(then_expr.expr),
                else_expr: Box::new(else_expr.expr),
            },
            span,
            depth,
        )
    }

    /// Binary and prefix operators by precedence climbing: operands and
    /// pending operators live on explicit stacks, and an operator is
    /// applied once the next binary operator binds no tighter. Nodes are
    /// built in the order a recursive-descent parser would build them.
    fn binary(&mut self) -> Option<Sub> {
        let mut operands: Vec<Sub> = Vec::new();
        let mut ops: Vec<Pending> = Vec::new();
        loop {
            let mut prefixes = 0;
            loop {
                let start = self.span();
                let op = match self.peek() {
                    TokenKind::Minus => UnOp::Neg,
                    TokenKind::Bang => UnOp::Not,
                    TokenKind::Amp => {
                        self.bump();
                        self.error(
                            "BA001",
                            "address-of is forbidden in Brook Auto (ISO 26262 restricted pointer use)",
                        );
                        return None;
                    }
                    // A leading `*` can only be a dereference attempt here.
                    TokenKind::Star if !matches!(self.peek_at(1), TokenKind::Eof) => {
                        self.error(
                            "BA001",
                            "pointer dereference is forbidden in Brook Auto (ISO 26262 restricted pointer use)",
                        );
                        return None;
                    }
                    _ => break,
                };
                // Each prefix adds a level, so a chain this long is over
                // the bound before its operand is even read.
                prefixes += 1;
                if prefixes >= MAX_EXPR_DEPTH {
                    self.depth_error();
                    return None;
                }
                self.bump();
                ops.push(Pending::Prefix(op, start));
            }
            operands.push(self.postfix()?);
            let next = binary_op(self.peek());
            while let Some(&top) = ops.last() {
                let applies = match top {
                    Pending::Prefix(..) => true,
                    Pending::Binary(_, prec) => next.is_none_or(|(_, next_prec)| prec >= next_prec),
                };
                if !applies {
                    break;
                }
                ops.pop();
                let rhs = operands.pop().expect("an operand per operator");
                let applied = match top {
                    Pending::Prefix(op, start) => {
                        let span = start.merge(rhs.expr.span);
                        let kind = ExprKind::Unary {
                            op,
                            operand: Box::new(rhs.expr),
                        };
                        self.node(kind, span, rhs.depth)?
                    }
                    Pending::Binary(op, _) => {
                        let lhs = operands.pop().expect("an operand per operator");
                        let span = lhs.expr.span.merge(rhs.expr.span);
                        let depth = lhs.depth.max(rhs.depth);
                        let kind = ExprKind::Binary {
                            op,
                            lhs: Box::new(lhs.expr),
                            rhs: Box::new(rhs.expr),
                        };
                        self.node(kind, span, depth)?
                    }
                };
                operands.push(applied);
            }
            match next {
                Some((op, prec)) => {
                    self.bump();
                    ops.push(Pending::Binary(op, prec));
                }
                None => return operands.pop(),
            }
        }
    }

    fn postfix(&mut self) -> Option<Sub> {
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                TokenKind::LBracket => {
                    let mut indices = Vec::new();
                    let mut depth = e.depth;
                    while self.eat(&TokenKind::LBracket) {
                        let index = self.sub_expr()?;
                        depth = depth.max(index.depth);
                        indices.push(index.expr);
                        self.expect(&TokenKind::RBracket);
                    }
                    let span = e.expr.span.merge(self.prev_span());
                    let kind = ExprKind::Index {
                        base: Box::new(e.expr),
                        indices,
                    };
                    e = self.node(kind, span, depth)?;
                }
                TokenKind::Dot => {
                    self.bump();
                    let name = self.ident()?;
                    let Some(components) = normalize_swizzle(&name) else {
                        self.error(
                            "P009",
                            format!("invalid swizzle `{name}` (components must be from xyzw/rgba)"),
                        );
                        return None;
                    };
                    let span = e.expr.span.merge(self.prev_span());
                    let kind = ExprKind::Swizzle {
                        base: Box::new(e.expr),
                        components,
                    };
                    e = self.node(kind, span, e.depth)?;
                }
                _ => return Some(e),
            }
        }
    }

    /// `( args )` after a callee, with the depth of the deepest argument.
    fn call_args(&mut self) -> Option<(Vec<Expr>, u32)> {
        self.expect(&TokenKind::LParen);
        let mut args = Vec::new();
        let mut depth = 0;
        if !self.eat(&TokenKind::RParen) {
            loop {
                let arg = self.sub_expr()?;
                depth = depth.max(arg.depth);
                args.push(arg.expr);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen);
        }
        Some((args, depth))
    }

    fn primary(&mut self) -> Option<Sub> {
        let start = self.span();
        match self.peek().clone() {
            TokenKind::FloatLit(v) => {
                self.bump();
                Some(self.leaf(ExprKind::FloatLit(v), start))
            }
            TokenKind::IntLit(v) => {
                self.bump();
                Some(self.leaf(ExprKind::IntLit(v), start))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.bump();
                Some(self.leaf(ExprKind::BoolLit(true), start))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.bump();
                Some(self.leaf(ExprKind::BoolLit(false), start))
            }
            TokenKind::Keyword(Keyword::Indexof) => {
                self.bump();
                self.expect(&TokenKind::LParen);
                let stream = self.ident()?;
                self.expect(&TokenKind::RParen);
                let span = start.merge(self.prev_span());
                Some(self.leaf(ExprKind::Indexof { stream }, span))
            }
            TokenKind::Keyword(
                kw @ (Keyword::Float | Keyword::Float2 | Keyword::Float3 | Keyword::Float4 | Keyword::Int),
            ) => {
                // Constructor / cast call: float2(a, b), float(x), int(x).
                self.bump();
                let (args, depth) = self.call_args()?;
                let span = start.merge(self.prev_span());
                let callee = kw.as_str().to_owned();
                self.node(ExprKind::Call { callee, args }, span, depth)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if !matches!(self.peek(), TokenKind::LParen) {
                    return Some(self.leaf(ExprKind::Var(name), start));
                }
                let (args, depth) = self.call_args()?;
                let span = start.merge(self.prev_span());
                self.node(ExprKind::Call { callee: name, args }, span, depth)
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.sub_expr()?;
                self.expect(&TokenKind::RParen);
                let depth = match inner.depth == 1 || inner.parenthesized {
                    true => inner.depth + 1,
                    false => inner.depth,
                };
                if depth > MAX_EXPR_DEPTH {
                    self.depth_error();
                    return None;
                }
                Some(Sub {
                    expr: inner.expr,
                    depth,
                    parenthesized: true,
                })
            }
            other => {
                let msg = format!("expected expression, found {other}");
                self.error("P010", msg);
                None
            }
        }
    }
}

/// Normalizes a swizzle like `rgba` to `xyzw` letters; returns `None` if
/// the identifier is not a valid swizzle of length 1..=4.
fn normalize_swizzle(name: &str) -> Option<String> {
    if name.is_empty() || name.len() > 4 {
        return None;
    }
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        out.push(match c {
            'x' | 'r' | 's' => 'x',
            'y' | 'g' | 't' => 'y',
            'z' | 'b' | 'p' => 'z',
            'w' | 'a' | 'q' => 'w',
            _ => return None,
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        parse(src).unwrap_or_else(|e| panic!("parse failed: {e}: {:?}", e.diagnostics))
    }

    fn parse_err(src: &str) -> CompileError {
        parse(src).expect_err("expected parse failure")
    }

    #[test]
    fn parses_simple_kernel() {
        let p = parse_ok("kernel void add(float a<>, float b<>, out float c<>) { c = a + b; }");
        let k = p.kernel("add").unwrap();
        assert!(!k.is_reduce);
        assert_eq!(k.params.len(), 3);
        assert_eq!(k.params[2].kind, ParamKind::OutStream);
        assert_eq!(k.body.stmts.len(), 1);
    }

    #[test]
    fn parses_reduce_kernel() {
        let p = parse_ok("reduce void sum(float a<>, reduce float r<>) { r += a; }");
        let k = p.kernel("sum").unwrap();
        assert!(k.is_reduce);
        assert_eq!(k.params[1].kind, ParamKind::ReduceOut);
    }

    #[test]
    fn parses_gather_param() {
        let p = parse_ok("kernel void g(float a[][], float idx<>, out float o<>) { o = a[1][2]; }");
        let k = p.kernel("g").unwrap();
        assert_eq!(k.params[0].kind, ParamKind::Gather { rank: 2 });
    }

    #[test]
    fn parses_indexof() {
        let p = parse_ok("kernel void f(float a<>, out float o<>) { float2 i = indexof(o); o = i.x; }");
        let k = p.kernel("f").unwrap();
        assert_eq!(k.body.stmts.len(), 2);
    }

    #[test]
    fn parses_for_loop() {
        let p = parse_ok(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                int i;
                for (i = 0; i < 16; i++) { s += a; }
                o = s;
            }",
        );
        let k = p.kernel("f").unwrap();
        assert!(matches!(k.body.stmts[2], Stmt::For { .. }));
    }

    #[test]
    fn parses_if_else_chain() {
        parse_ok(
            "kernel void f(float a<>, out float o<>) {
                if (a > 1.0) { o = 1.0; } else if (a > 0.5) { o = 0.5; } else { o = 0.0; }
            }",
        );
    }

    #[test]
    fn parses_ternary_and_precedence() {
        let p = parse_ok("kernel void f(float a<>, out float o<>) { o = a > 0.0 ? a * 2.0 + 1.0 : -a; }");
        let k = p.kernel("f").unwrap();
        // Ensure the body parsed as one assignment of a ternary.
        match &k.body.stmts[0] {
            Stmt::Assign { value, .. } => assert!(matches!(value.kind, ExprKind::Ternary { .. })),
            other => panic!("expected assignment, got {other:?}"),
        }
    }

    #[test]
    fn parses_swizzles() {
        let p = parse_ok("kernel void f(float4 a<>, out float2 o<>) { o = a.xw + a.rg; }");
        assert_eq!(p.kernels().count(), 1);
    }

    #[test]
    fn rejects_bad_swizzle() {
        let e = parse_err("kernel void f(float4 a<>, out float o<>) { o = a.foo; }");
        assert!(e.has_code("P009"));
    }

    #[test]
    fn rejects_pointer_param() {
        let e = parse_err("kernel void f(float *p, out float o<>) { o = 0.0; }");
        assert!(e.has_code("BA001"));
    }

    #[test]
    fn rejects_address_of() {
        let e = parse_err("kernel void f(float a<>, out float o<>) { o = &a; }");
        assert!(e.has_code("BA001"));
    }

    #[test]
    fn rejects_goto() {
        let e = parse_err("kernel void f(float a<>, out float o<>) { goto end; }");
        assert!(e.has_code("BA007"));
    }

    #[test]
    fn rejects_local_array() {
        let e = parse_err("kernel void f(float a<>, out float o<>) { float buf[4]; o = a; }");
        assert!(e.has_code("BA008"));
    }

    #[test]
    fn parses_helper_function() {
        let p = parse_ok(
            "float sq(float x) { return x * x; }
             kernel void f(float a<>, out float o<>) { o = sq(a); }",
        );
        assert_eq!(p.functions().count(), 1);
        assert!(p.function("sq").unwrap().return_ty.is_some());
    }

    #[test]
    fn parses_vector_constructors() {
        parse_ok("kernel void f(float a<>, out float4 o<>) { o = float4(a, a, 0.0, 1.0); }");
    }

    #[test]
    fn increments_lower_to_assignments() {
        let p = parse_ok(
            "kernel void f(float a<>, out float o<>) { int i; i = 0; for (; i < 4; i++) { } o = a; }",
        );
        assert_eq!(p.kernels().count(), 1);
    }

    #[test]
    fn error_recovery_continues_to_next_kernel() {
        // The first kernel is malformed; the parser should still report and
        // reach EOF without panicking.
        let e = parse_err(
            "kernel void f(float a<>) { o = ; } kernel void g(float a<>, out float o<>) { o = a; }",
        );
        assert!(e.first_error().is_some());
    }

    #[test]
    fn node_ids_are_unique() {
        let p = parse_ok("kernel void f(float a<>, out float o<>) { o = a + a * a; }");
        let mut seen = std::collections::HashSet::new();
        fn walk(e: &Expr, seen: &mut std::collections::HashSet<NodeId>) {
            assert!(seen.insert(e.id), "duplicate node id {}", e.id);
            match &e.kind {
                ExprKind::Binary { lhs, rhs, .. } => {
                    walk(lhs, seen);
                    walk(rhs, seen);
                }
                ExprKind::Unary { operand, .. } => walk(operand, seen),
                _ => {}
            }
        }
        for k in p.kernels() {
            for s in &k.body.stmts {
                if let Stmt::Assign { target, value, .. } = s {
                    walk(target, &mut seen);
                    walk(value, &mut seen);
                }
            }
        }
        assert!(seen.len() >= 4);
    }

    #[test]
    fn swizzle_normalization() {
        assert_eq!(normalize_swizzle("rgba").as_deref(), Some("xyzw"));
        assert_eq!(normalize_swizzle("xy").as_deref(), Some("xy"));
        assert_eq!(normalize_swizzle("stpq").as_deref(), Some("xyzw"));
        assert_eq!(normalize_swizzle("xk"), None);
        assert_eq!(normalize_swizzle("xyzwx"), None);
    }
}
