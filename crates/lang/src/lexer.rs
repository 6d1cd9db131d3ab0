//! Hand-written lexer for the Brook Auto kernel language.
//!
//! The lexer is total: it never panics on malformed input, and reports
//! unknown characters as `L001` diagnostics. Pointer-forming tokens such as
//! `&` are lexed (so the parser can reject them with a certification-aware
//! message) but `goto` and friends are surfaced as keywords for the same
//! reason.

use crate::diag::Diagnostic;
use crate::span::Span;
use crate::token::{Keyword, Token, TokenKind};

/// Converts Brook source text into a token stream.
///
/// ```
/// use brook_lang::lexer::lex;
/// let (tokens, diags) = lex("kernel void f(float a<>, out float b<>) { b = a; }");
/// assert!(diags.is_empty());
/// assert!(tokens.len() > 10);
/// ```
pub fn lex(src: &str) -> (Vec<Token>, Vec<Diagnostic>) {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    tokens: Vec<Token>,
    diags: Vec<Diagnostic>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            tokens: Vec::new(),
            diags: Vec::new(),
        }
    }

    fn run(mut self) -> (Vec<Token>, Vec<Diagnostic>) {
        while self.pos < self.bytes.len() {
            self.skip_trivia();
            if self.pos >= self.bytes.len() {
                break;
            }
            let start = self.pos;
            let (line, col) = (self.line, self.col);
            let c = self.bytes[self.pos];
            let kind = match c {
                b'0'..=b'9' => self.number(),
                b'.' if self.peek(1).is_ascii_digit() => self.number(),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(),
                _ => self.punct(),
            };
            if let Some(kind) = kind {
                let span = Span::new(start, self.pos, line, col);
                self.tokens.push(Token { kind, span });
            }
        }
        let eof = Span::new(self.pos, self.pos, self.line, self.col);
        self.tokens.push(Token {
            kind: TokenKind::Eof,
            span: eof,
        });
        (self.tokens, self.diags)
    }

    fn peek(&self, ahead: usize) -> u8 {
        *self.bytes.get(self.pos + ahead).unwrap_or(&0)
    }

    /// Advances past one character — all of its UTF-8 bytes — and
    /// returns its first byte.
    fn bump(&mut self) -> u8 {
        let c = self.bytes[self.pos];
        self.pos += match c {
            0..=0x7F => 1,
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            _ => 4,
        };
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        c
    }

    fn skip_trivia(&mut self) {
        loop {
            while self.pos < self.bytes.len() && matches!(self.bytes[self.pos], b' ' | b'\t'..=b'\r') {
                self.bump();
            }
            if self.peek(0) == b'/' && self.peek(1) == b'/' {
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.bump();
                }
                continue;
            }
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                let (line, col, start) = (self.line, self.col, self.pos);
                self.bump();
                self.bump();
                let mut closed = false;
                while self.pos < self.bytes.len() {
                    if self.peek(0) == b'*' && self.peek(1) == b'/' {
                        self.bump();
                        self.bump();
                        closed = true;
                        break;
                    }
                    self.bump();
                }
                if !closed {
                    self.diags.push(Diagnostic::error(
                        "L002",
                        "unterminated block comment",
                        Span::new(start, self.pos, line, col),
                    ));
                }
                continue;
            }
            break;
        }
    }

    fn number(&mut self) -> Option<TokenKind> {
        let start = self.pos;
        let (line, col) = (self.line, self.col);
        let mut is_float = false;
        while self.peek(0).is_ascii_digit() {
            self.bump();
        }
        if self.peek(0) == b'.' && self.peek(1) != b'.' {
            is_float = true;
            self.bump();
            while self.peek(0).is_ascii_digit() {
                self.bump();
            }
        }
        if self.peek(0) == b'e' || self.peek(0) == b'E' {
            let mut ahead = 1;
            if self.peek(1) == b'+' || self.peek(1) == b'-' {
                ahead = 2;
            }
            if self.peek(ahead).is_ascii_digit() {
                is_float = true;
                for _ in 0..ahead {
                    self.bump();
                }
                while self.peek(0).is_ascii_digit() {
                    self.bump();
                }
            }
        }
        // C-style float suffix.
        if self.peek(0) == b'f' || self.peek(0) == b'F' {
            is_float = true;
            self.bump();
        }
        let text = &self.src[start..self.pos];
        let text = text.trim_end_matches(['f', 'F']);
        if is_float {
            match text.parse::<f32>() {
                Ok(v) => Some(TokenKind::FloatLit(v)),
                Err(_) => {
                    self.diags.push(Diagnostic::error(
                        "L003",
                        format!("malformed float literal `{text}`"),
                        Span::new(start, self.pos, line, col),
                    ));
                    None
                }
            }
        } else {
            match text.parse::<i64>() {
                Ok(v) => Some(TokenKind::IntLit(v)),
                Err(_) => {
                    self.diags.push(Diagnostic::error(
                        "L004",
                        format!("integer literal `{text}` out of range"),
                        Span::new(start, self.pos, line, col),
                    ));
                    None
                }
            }
        }
    }

    fn ident(&mut self) -> Option<TokenKind> {
        let start = self.pos;
        while matches!(self.peek(0), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_') {
            self.bump();
        }
        let text = &self.src[start..self.pos];
        Some(match Keyword::lookup(text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(text.to_owned()),
        })
    }

    fn punct(&mut self) -> Option<TokenKind> {
        let (line, col, start) = (self.line, self.col, self.pos);
        let c = self.bump();
        let two = |l: &mut Self, next: u8, yes: TokenKind, no: TokenKind| {
            if l.peek(0) == next {
                l.bump();
                yes
            } else {
                no
            }
        };
        Some(match c {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b';' => TokenKind::Semicolon,
            b',' => TokenKind::Comma,
            b'.' => TokenKind::Dot,
            b'?' => TokenKind::Question,
            b':' => TokenKind::Colon,
            b'%' => TokenKind::Percent,
            b'+' => {
                if self.peek(0) == b'+' {
                    self.bump();
                    TokenKind::PlusPlus
                } else {
                    two(self, b'=', TokenKind::PlusAssign, TokenKind::Plus)
                }
            }
            b'-' => {
                if self.peek(0) == b'-' {
                    self.bump();
                    TokenKind::MinusMinus
                } else {
                    two(self, b'=', TokenKind::MinusAssign, TokenKind::Minus)
                }
            }
            b'*' => two(self, b'=', TokenKind::StarAssign, TokenKind::Star),
            b'/' => two(self, b'=', TokenKind::SlashAssign, TokenKind::Slash),
            b'<' => two(self, b'=', TokenKind::Le, TokenKind::Lt),
            b'>' => two(self, b'=', TokenKind::Ge, TokenKind::Gt),
            b'=' => two(self, b'=', TokenKind::EqEq, TokenKind::Assign),
            b'!' => two(self, b'=', TokenKind::Ne, TokenKind::Bang),
            b'&' => two(self, b'&', TokenKind::AmpAmp, TokenKind::Amp),
            b'|' => two(self, b'|', TokenKind::PipePipe, TokenKind::Pipe),
            _ => {
                self.diags.push(Diagnostic::error(
                    "L001",
                    format!("unexpected character `{}`", &self.src[start..self.pos]),
                    Span::new(start, self.pos, line, col),
                ));
                return None;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        let (toks, diags) = lex(src);
        assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_kernel_header() {
        let k = kinds("kernel void f(float a<>)");
        assert_eq!(k[0], TokenKind::Keyword(Keyword::Kernel));
        assert_eq!(k[1], TokenKind::Keyword(Keyword::Void));
        assert_eq!(k[2], TokenKind::Ident("f".into()));
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("42")[0], TokenKind::IntLit(42));
        assert_eq!(kinds("1.5")[0], TokenKind::FloatLit(1.5));
        assert_eq!(kinds(".5")[0], TokenKind::FloatLit(0.5));
        assert_eq!(kinds("2e3")[0], TokenKind::FloatLit(2000.0));
        assert_eq!(kinds("1.5e-2")[0], TokenKind::FloatLit(0.015));
        assert_eq!(kinds("3.0f")[0], TokenKind::FloatLit(3.0));
        assert_eq!(kinds("7f")[0], TokenKind::FloatLit(7.0));
    }

    #[test]
    fn lexes_compound_operators() {
        assert_eq!(kinds("+=")[0], TokenKind::PlusAssign);
        assert_eq!(kinds("==")[0], TokenKind::EqEq);
        assert_eq!(kinds("!=")[0], TokenKind::Ne);
        assert_eq!(kinds("&&")[0], TokenKind::AmpAmp);
        assert_eq!(kinds("||")[0], TokenKind::PipePipe);
        assert_eq!(kinds("++")[0], TokenKind::PlusPlus);
        assert_eq!(kinds("--")[0], TokenKind::MinusMinus);
    }

    #[test]
    fn skips_comments() {
        let k = kinds("a // line\n b /* block\n comment */ c");
        assert_eq!(k.len(), 4); // a b c eof
    }

    #[test]
    fn reports_unterminated_comment() {
        let (_, diags) = lex("a /* never closed");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "L002");
    }

    #[test]
    fn reports_unknown_character() {
        let (toks, diags) = lex("a @ b");
        assert_eq!(diags[0].code, "L001");
        // Lexing continues after the bad character.
        assert_eq!(
            toks.iter()
                .filter(|t| matches!(t.kind, TokenKind::Ident(_)))
                .count(),
            2
        );
    }

    #[test]
    fn reports_each_non_ascii_character_once_and_whole() {
        // `é` is two UTF-8 bytes and U+00A0 / U+0085 end in the bytes
        // 0xA0 / 0x85: none may be reported byte by byte, nor skipped
        // as whitespace.
        let (toks, diags) = lex("a\u{c5} \u{e9} x\u{a0}y\u{85}z");
        let messages: Vec<_> = diags.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(
            messages,
            [
                "unexpected character `\u{c5}`",
                "unexpected character `\u{e9}`",
                "unexpected character `\u{a0}`",
                "unexpected character `\u{85}`",
            ]
        );
        assert!(diags.iter().all(|d| d.code == "L001"));
        let cols: Vec<_> = diags.iter().map(|d| d.span.col).collect();
        assert_eq!(cols, [2, 4, 7, 9]);
        let idents: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Ident(s) => Some((s.as_str(), t.span.col)),
                _ => None,
            })
            .collect();
        assert_eq!(idents, [("a", 1), ("x", 6), ("y", 8), ("z", 10)]);
    }

    #[test]
    fn tracks_line_and_column() {
        let (toks, _) = lex("a\n  b");
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[1].span.col, 3);
    }

    #[test]
    fn lexes_ampersand_for_cert_rejection() {
        assert_eq!(kinds("&")[0], TokenKind::Amp);
        assert_eq!(kinds("goto")[0], TokenKind::Keyword(Keyword::Goto));
    }

    #[test]
    fn eof_is_final_token() {
        let (toks, _) = lex("");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].kind, TokenKind::Eof);
    }
}
