//! The C lexer.
//!
//! Converts raw source text into a stream of [`Token`]s. Handles line
//! splicing (`\` + newline), both comment styles, all C89 literals plus the
//! common `//` and `long long` extensions, and records the layout flags the
//! preprocessor needs (`first_on_line`, `space_before`).
//!
//! The scanner works on bytes: blanks, identifiers, numbers and comment
//! bodies are consumed as runs, identifiers are interned straight from the
//! source slice, and the column is derived from the offset of the line
//! start. A backslash-newline may sit anywhere, even inside a token, so every
//! run stops at a `\` and hands over to the lexer's byte-at-a-time `peek` /
//! `bump` pair, which splice lines transparently; input without
//! backslashes never takes that path.

use crate::error::{CError, Result};
use crate::span::{FileId, Loc};
use crate::token::{IntSuffix, Interner, Punct, Token, TokenKind, TokenStream};

/// Lexes a whole file into a token stream (without a trailing `Eof` token)
/// that owns a fresh interner.
///
/// # Errors
///
/// Returns [`CError::Lex`] on malformed literals, unterminated comments or
/// strings, or characters outside the C source character set.
pub fn lex(src: &str, file: FileId) -> Result<TokenStream> {
    let mut interner = Interner::new();
    let tokens = lex_into(src, file, &mut interner)?;
    Ok(TokenStream::new(tokens, interner))
}

/// [`lex`] into the caller's interner: how the preprocessor lexes every file
/// of one translation unit (and every `##` paste) into one symbol space.
pub(crate) fn lex_into(src: &str, file: FileId, interner: &mut Interner) -> Result<Vec<Token>> {
    Lexer {
        text: src,
        src: src.as_bytes(),
        pos: 0,
        file,
        line: 1,
        line_start: 0,
        first_on_line: true,
        space_before: false,
        interner,
        scratch: String::new(),
        out: Vec::with_capacity(src.len() / 4),
    }
    .run()
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `b` continues a preprocessing-number whose previous byte was
/// `prev` (digits, letters, dots, and a sign right after an exponent mark).
fn is_number_byte(b: u8, prev: u8) -> bool {
    is_ident_byte(b)
        || b == b'.'
        || ((b == b'+' || b == b'-') && matches!(prev, b'e' | b'E' | b'p' | b'P'))
}

struct Lexer<'s, 'i> {
    text: &'s str,
    src: &'s [u8],
    pos: usize,
    file: FileId,
    line: u32,
    /// Offset just past the last newline or line splice; the column of
    /// `pos` is its distance from here.
    line_start: usize,
    first_on_line: bool,
    space_before: bool,
    interner: &'i mut Interner,
    /// Spelling of the token being lexed, when it cannot be taken from the
    /// source as one slice: a splice inside it, or a string literal.
    scratch: String,
    out: Vec<Token>,
}

impl Lexer<'_, '_> {
    fn loc(&self) -> Loc {
        Loc::new(
            self.file,
            self.line,
            (self.pos - self.line_start) as u32 + 1,
        )
    }

    /// Length of the line splice at `p`, which must hold a backslash:
    /// `\` + LF is 2, `\` + CR LF is 3.
    fn splice_len(&self, p: usize) -> Option<usize> {
        match (self.src.get(p + 1), self.src.get(p + 2)) {
            (Some(b'\n'), _) => Some(2),
            (Some(b'\r'), Some(b'\n')) => Some(3),
            _ => None,
        }
    }

    fn peek(&self) -> Option<u8> {
        match self.src.get(self.pos) {
            Some(b'\\') => self.peek_at(0),
            b => b.copied(),
        }
    }

    /// Peeks `n` bytes ahead, transparently skipping line splices.
    fn peek_at(&self, n: usize) -> Option<u8> {
        if let Some(window) = self.src.get(self.pos..=self.pos + n) {
            if !window.contains(&b'\\') {
                return Some(window[n]);
            }
        }
        let mut p = self.pos;
        let mut remaining = n;
        loop {
            while self.src.get(p) == Some(&b'\\') {
                match self.splice_len(p) {
                    Some(len) => p += len,
                    None => break,
                }
            }
            let b = *self.src.get(p)?;
            if remaining == 0 {
                return Some(b);
            }
            remaining -= 1;
            p += 1;
        }
    }

    /// Consumes one byte, maintaining the line bookkeeping and splicing
    /// lines.
    fn bump(&mut self) -> Option<u8> {
        loop {
            let b = *self.src.get(self.pos)?;
            if b == b'\\' {
                if let Some(len) = self.splice_len(self.pos) {
                    self.pos += len;
                    self.line += 1;
                    self.line_start = self.pos;
                    continue;
                }
            }
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
                self.line_start = self.pos;
            }
            return Some(b);
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn err(&self, msg: impl Into<String>) -> CError {
        CError::lex(msg, self.loc())
    }

    fn run(mut self) -> Result<Vec<Token>> {
        loop {
            self.skip_ws_and_comments()?;
            let loc = self.loc();
            let Some(b) = self.peek() else { break };
            let first = self.first_on_line;
            let space = self.space_before;
            let kind = self.next_kind(b)?;
            self.out.push(Token {
                kind,
                loc,
                first_on_line: first,
                space_before: space,
            });
            self.first_on_line = false;
            self.space_before = false;
        }
        Ok(self.out)
    }

    /// Advances `pos` over bytes for which `plain` holds. The caller's
    /// predicate must reject `\n` and `\`: the run then crosses no line
    /// boundary and no splice, so only `pos` moves.
    fn skip_run(&mut self, plain: impl Fn(u8) -> bool) {
        let rest = &self.src[self.pos..];
        self.pos += rest.iter().position(|&b| !plain(b)).unwrap_or(rest.len());
    }

    fn skip_ws_and_comments(&mut self) -> Result<()> {
        loop {
            // Runs of blanks and newlines; anything else — a comment, or a
            // backslash that may splice more blanks on — goes through `peek`.
            while let Some(&b) = self.src.get(self.pos) {
                match b {
                    b'\n' => {
                        self.pos += 1;
                        self.line += 1;
                        self.line_start = self.pos;
                        self.first_on_line = true;
                        self.space_before = true;
                    }
                    b' ' | b'\t' | b'\r' | 0x0b | 0x0c => {
                        self.pos += 1;
                        self.space_before = true;
                    }
                    _ => break,
                }
            }
            match self.peek() {
                Some(b'\n') => {
                    self.bump();
                    self.first_on_line = true;
                    self.space_before = true;
                }
                Some(b' ') | Some(b'\t') | Some(b'\r') | Some(0x0b) | Some(0x0c) => {
                    self.bump();
                    self.space_before = true;
                }
                Some(b'/') if self.peek_at(1) == Some(b'/') => {
                    loop {
                        self.skip_run(|b| b != b'\n' && b != b'\\');
                        match self.peek() {
                            None | Some(b'\n') => break,
                            Some(_) => {
                                self.bump();
                            }
                        }
                    }
                    self.space_before = true;
                }
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    let start = self.loc();
                    self.bump();
                    self.bump();
                    loop {
                        self.skip_run(|b| b != b'*' && b != b'\n' && b != b'\\');
                        match self.bump() {
                            Some(b'*') if self.peek() == Some(b'/') => {
                                self.bump();
                                break;
                            }
                            Some(_) => {}
                            None => return Err(CError::lex("unterminated block comment", start)),
                        }
                    }
                    self.space_before = true;
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_kind(&mut self, b: u8) -> Result<TokenKind> {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_ident(),
            b'0'..=b'9' => self.lex_number(),
            b'.' if self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) => self.lex_number(),
            b'\'' => self.lex_char(),
            b'"' => self.lex_string(),
            _ => self.lex_punct(),
        }
    }

    /// Consumes the identifier or number at the cursor — bytes accepted by
    /// `more(byte, previous byte)` — and returns whether its spelling had to
    /// be gathered into `scratch` (a backslash stopped the run, so a splice
    /// may continue the token) or is `text[start..pos]`.
    fn scan_word(&mut self, more: impl Fn(u8, u8) -> bool) -> bool {
        let mut end = self.pos;
        let mut prev = 0u8;
        while let Some(&b) = self.src.get(end) {
            if !more(b, prev) {
                break;
            }
            prev = b;
            end += 1;
        }
        if self.src.get(end) != Some(&b'\\') {
            self.pos = end;
            return false;
        }
        self.scratch.clear();
        let mut prev = 0u8;
        while let Some(b) = self.peek() {
            if !more(b, prev) {
                break;
            }
            self.bump();
            self.scratch.push(b as char);
            prev = b;
        }
        true
    }

    fn lex_ident(&mut self) -> Result<TokenKind> {
        let text = self.text;
        let start = self.pos;
        let spliced = self.scan_word(|b, _| is_ident_byte(b));
        let name = if spliced {
            self.scratch.as_str()
        } else {
            &text[start..self.pos]
        };
        // Wide literal prefixes: treat L"..." / L'...' as plain literals.
        if name == "L" {
            match self.peek() {
                Some(b'"') => return self.lex_string(),
                Some(b'\'') => return self.lex_char(),
                _ => {}
            }
        }
        let sym = if spliced {
            self.interner.intern(&self.scratch)
        } else {
            self.interner.intern(&text[start..self.pos])
        };
        Ok(TokenKind::Ident(sym))
    }

    fn lex_number(&mut self) -> Result<TokenKind> {
        let text = self.text;
        let start = self.pos;
        // Gather the full preprocessing-number first (digits, letters, dots,
        // exponent signs), then classify.
        let spliced = self.scan_word(is_number_byte);
        let number = if spliced {
            self.scratch.as_str()
        } else {
            &text[start..self.pos]
        };
        parse_pp_number(number).ok_or_else(|| self.err(format!("malformed number `{number}`")))
    }

    fn lex_escape(&mut self) -> Result<i64> {
        // Caller has consumed the backslash.
        let Some(b) = self.bump() else {
            return Err(self.err("unterminated escape sequence"));
        };
        Ok(match b {
            b'n' => b'\n' as i64,
            b't' => b'\t' as i64,
            b'r' => b'\r' as i64,
            b'0'..=b'7' => {
                let mut v = (b - b'0') as i64;
                for _ in 0..2 {
                    match self.peek() {
                        Some(c @ b'0'..=b'7') => {
                            self.bump();
                            v = v * 8 + (c - b'0') as i64;
                        }
                        _ => break,
                    }
                }
                v
            }
            b'x' => {
                let mut v: i64 = 0;
                let mut any = false;
                while let Some(c) = self.peek() {
                    if let Some(d) = (c as char).to_digit(16) {
                        self.bump();
                        v = v.wrapping_mul(16).wrapping_add(d as i64);
                        any = true;
                    } else {
                        break;
                    }
                }
                if !any {
                    return Err(self.err("\\x with no hex digits"));
                }
                v
            }
            b'a' => 7,
            b'b' => 8,
            b'f' => 12,
            b'v' => 11,
            b'\\' => b'\\' as i64,
            b'\'' => b'\'' as i64,
            b'"' => b'"' as i64,
            b'?' => b'?' as i64,
            other => other as i64, // lenient: unknown escape is the char itself
        })
    }

    fn lex_char(&mut self) -> Result<TokenKind> {
        let start = self.loc();
        self.bump(); // opening quote
        let mut value: i64 = 0;
        let mut any = false;
        loop {
            match self.peek() {
                None | Some(b'\n') => {
                    return Err(CError::lex("unterminated character constant", start))
                }
                Some(b'\'') => {
                    self.bump();
                    break;
                }
                Some(b'\\') => {
                    self.bump();
                    let v = self.lex_escape()?;
                    value = (value << 8) | (v & 0xff);
                    any = true;
                }
                Some(c) => {
                    self.bump();
                    value = (value << 8) | c as i64;
                    any = true;
                }
            }
        }
        if !any {
            return Err(CError::lex("empty character constant", start));
        }
        Ok(TokenKind::Char(value))
    }

    fn lex_string(&mut self) -> Result<TokenKind> {
        let start = self.loc();
        self.bump(); // opening quote
        self.scratch.clear();
        loop {
            // Plain ASCII goes over as a slice; bytes above it are re-encoded
            // one by one below (a source byte is one character of the value).
            let run = self.pos;
            self.skip_run(|b| b.is_ascii() && !matches!(b, b'"' | b'\\' | b'\n'));
            if self.pos > run {
                self.scratch.push_str(&self.text[run..self.pos]);
            }
            match self.peek() {
                None | Some(b'\n') => {
                    return Err(CError::lex("unterminated string literal", start))
                }
                Some(b'"') => {
                    self.bump();
                    break;
                }
                Some(b'\\') => {
                    self.bump();
                    let v = self.lex_escape()?;
                    self.scratch.push((v as u8) as char);
                }
                Some(c) => {
                    self.bump();
                    self.scratch.push(c as char);
                }
            }
        }
        Ok(TokenKind::Str(self.interner.intern(&self.scratch)))
    }

    fn lex_punct(&mut self) -> Result<TokenKind> {
        use Punct::*;
        let b = self.bump().unwrap();
        let p = match b {
            b'(' => LParen,
            b')' => RParen,
            b'[' => LBracket,
            b']' => RBracket,
            b'{' => LBrace,
            b'}' => RBrace,
            b',' => Comma,
            b';' => Semi,
            b':' => Colon,
            b'?' => Question,
            b'~' => Tilde,
            b'.' => {
                if self.peek() == Some(b'.') && self.peek_at(1) == Some(b'.') {
                    self.bump();
                    self.bump();
                    Ellipsis
                } else {
                    Dot
                }
            }
            b'+' => {
                if self.eat(b'+') {
                    PlusPlus
                } else if self.eat(b'=') {
                    PlusEq
                } else {
                    Plus
                }
            }
            b'-' => {
                if self.eat(b'-') {
                    MinusMinus
                } else if self.eat(b'=') {
                    MinusEq
                } else if self.eat(b'>') {
                    Arrow
                } else {
                    Minus
                }
            }
            b'&' => {
                if self.eat(b'&') {
                    AmpAmp
                } else if self.eat(b'=') {
                    AmpEq
                } else {
                    Amp
                }
            }
            b'*' => {
                if self.eat(b'=') {
                    StarEq
                } else {
                    Star
                }
            }
            b'!' => {
                if self.eat(b'=') {
                    BangEq
                } else {
                    Bang
                }
            }
            b'/' => {
                if self.eat(b'=') {
                    SlashEq
                } else {
                    Slash
                }
            }
            b'%' => {
                if self.eat(b'=') {
                    PercentEq
                } else {
                    Percent
                }
            }
            b'<' => {
                if self.eat(b'<') {
                    if self.eat(b'=') {
                        ShlEq
                    } else {
                        Shl
                    }
                } else if self.eat(b'=') {
                    Le
                } else {
                    Lt
                }
            }
            b'>' => {
                if self.eat(b'>') {
                    if self.eat(b'=') {
                        ShrEq
                    } else {
                        Shr
                    }
                } else if self.eat(b'=') {
                    Ge
                } else {
                    Gt
                }
            }
            b'=' => {
                if self.eat(b'=') {
                    EqEq
                } else {
                    Eq
                }
            }
            b'^' => {
                if self.eat(b'=') {
                    CaretEq
                } else {
                    Caret
                }
            }
            b'|' => {
                if self.eat(b'|') {
                    PipePipe
                } else if self.eat(b'=') {
                    PipeEq
                } else {
                    Pipe
                }
            }
            b'#' => {
                if self.eat(b'#') {
                    HashHash
                } else {
                    Hash
                }
            }
            other => {
                return Err(self.err(format!("unexpected character `{}`", other as char)));
            }
        };
        Ok(TokenKind::Punct(p))
    }
}

/// Parses a preprocessing-number into an `Int` or `Float` token kind.
/// Returns `None` when the text is not a valid C number.
fn parse_pp_number(text: &str) -> Option<TokenKind> {
    let bytes = text.as_bytes();
    // Plain decimal, the common case: no prefix, no suffix, no fraction.
    if (bytes.len() == 1 || bytes[0] != b'0') && bytes.iter().all(u8::is_ascii_digit) {
        let v = bytes.iter().fold(0u64, |v, b| {
            v.wrapping_mul(10).wrapping_add(u64::from(b - b'0'))
        });
        return Some(TokenKind::Int(v, IntSuffix::default()));
    }
    let is_float = {
        let hex = text.starts_with("0x") || text.starts_with("0X");
        text.contains('.')
            || (!hex && (text.contains('e') || text.contains('E')))
            || (hex && (text.contains('p') || text.contains('P')))
    };
    if is_float {
        // Strip a trailing f/F/l/L suffix.
        let mut end = bytes.len();
        while end > 0 && matches!(bytes[end - 1], b'f' | b'F' | b'l' | b'L') {
            end -= 1;
        }
        let v: f64 = text[..end].parse().ok()?;
        return Some(TokenKind::Float(v));
    }
    // Integer: radix prefix, digits, suffix.
    let (radix, digits_start) = if text.starts_with("0x") || text.starts_with("0X") {
        (16, 2)
    } else if bytes.len() > 1 && bytes[0] == b'0' {
        (8, 1)
    } else {
        (10, 0)
    };
    let mut end = bytes.len();
    let mut suffix = IntSuffix::default();
    loop {
        if end <= digits_start {
            break;
        }
        match bytes[end - 1] {
            b'u' | b'U' => {
                if suffix.unsigned {
                    return None;
                }
                suffix.unsigned = true;
                end -= 1;
            }
            b'l' | b'L' => {
                if suffix.long >= 2 {
                    return None;
                }
                suffix.long += 1;
                end -= 1;
            }
            _ => break,
        }
    }
    let digits = &text[digits_start..end];
    if digits.is_empty() {
        // `0u` / `0L`: the leading zero itself is the whole value (the octal
        // prefix consumed it). `0x` with no digits stays an error.
        if radix == 8 {
            return Some(TokenKind::Int(0, suffix));
        }
        return None;
    }
    let mut v: u64 = 0;
    for &b in digits.as_bytes() {
        let d = (b as char).to_digit(radix)?;
        v = v.wrapping_mul(radix as u64).wrapping_add(d as u64);
    }
    Some(TokenKind::Int(v, suffix))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src, FileId(0))
            .unwrap()
            .iter()
            .map(|t| t.kind)
            .collect()
    }

    /// Every token as `spelling@line:col`.
    fn placed(src: &str) -> Vec<String> {
        let ts = lex(src, FileId(0)).unwrap();
        ts.iter()
            .map(|t| {
                format!(
                    "{}@{}:{}",
                    t.kind.display(ts.interner()),
                    t.loc.line,
                    t.loc.col
                )
            })
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        assert_eq!(
            placed("int *p = &x;"),
            ["int@1:1", "*@1:5", "p@1:6", "=@1:8", "&@1:10", "x@1:11", ";@1:12"]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("0"), vec![TokenKind::Int(0, IntSuffix::default())]);
        assert_eq!(kinds("42"), vec![TokenKind::Int(42, IntSuffix::default())]);
        assert_eq!(
            kinds("0x1F"),
            vec![TokenKind::Int(31, IntSuffix::default())]
        );
        assert_eq!(kinds("017"), vec![TokenKind::Int(15, IntSuffix::default())]);
        assert_eq!(
            kinds("42ul"),
            vec![TokenKind::Int(
                42,
                IntSuffix {
                    unsigned: true,
                    long: 1
                }
            )]
        );
        assert_eq!(
            kinds("0u"),
            vec![TokenKind::Int(
                0,
                IntSuffix {
                    unsigned: true,
                    long: 0
                }
            )]
        );
        assert_eq!(
            kinds("0L"),
            vec![TokenKind::Int(
                0,
                IntSuffix {
                    unsigned: false,
                    long: 1
                }
            )]
        );
        assert_eq!(kinds("1.5"), vec![TokenKind::Float(1.5)]);
        assert_eq!(kinds("1e3"), vec![TokenKind::Float(1000.0)]);
        assert_eq!(kinds("1e+3"), vec![TokenKind::Float(1000.0)]);
        assert_eq!(kinds("2.5f"), vec![TokenKind::Float(2.5)]);
        assert_eq!(kinds(".5"), vec![TokenKind::Float(0.5)]);
        assert_eq!(
            kinds("18446744073709551616"),
            vec![TokenKind::Int(0, IntSuffix::default())],
            "decimal overflow wraps"
        );
    }

    #[test]
    fn char_and_string() {
        assert_eq!(kinds("'a'"), vec![TokenKind::Char('a' as i64)]);
        assert_eq!(kinds(r"'\n'"), vec![TokenKind::Char(10)]);
        assert_eq!(kinds(r"'\x41'"), vec![TokenKind::Char(0x41)]);
        assert_eq!(kinds(r"'\0'"), vec![TokenKind::Char(0)]);
        assert_eq!(placed(r#""hi\n""#), [r#""hi\n"@1:1"#]);
        assert_eq!(placed(r#"L"wide""#), [r#""wide"@1:1"#]);
        assert_eq!(kinds("L'w'"), vec![TokenKind::Char('w' as i64)]);
        assert_eq!(placed("L + L2"), ["L@1:1", "+@1:3", "L2@1:5"]);
        // A source byte above ASCII is one character of the value.
        let ts = lex("\"aé\\351z\"", FileId(0)).unwrap();
        assert_eq!(ts.text(&ts[0]), Some("a\u{c3}\u{a9}\u{e9}z"));
    }

    #[test]
    fn comments_and_layout_flags() {
        let ts = lex("a /* c */ b\n  c // x\nd", FileId(0)).unwrap();
        let names: Vec<_> = ts.iter().map(|t| ts.text(t).unwrap()).collect();
        assert_eq!(names, vec!["a", "b", "c", "d"]);
        assert!(ts[0].first_on_line);
        assert!(!ts[1].first_on_line);
        assert!(ts[1].space_before);
        assert!(ts[2].first_on_line);
        assert!(ts[3].first_on_line);
        assert_eq!(ts[3].loc.line, 3);
        // A block comment spanning lines does not start a new logical line.
        let ts = lex("a /* 1\n2 * / 3\n*/ b\nc", FileId(0)).unwrap();
        assert_eq!(ts[1].loc, Loc::new(FileId(0), 3, 4));
        assert!(!ts[1].first_on_line && ts[1].space_before);
        assert!(ts[2].first_on_line);
    }

    #[test]
    fn line_splice() {
        assert_eq!(placed("ab\\\ncd"), ["abcd@1:1"]);
        let ts = lex("#def\\\nine X 1", FileId(0)).unwrap();
        assert!(ts.is_ident(&ts[1], "define"));
    }

    /// A splice may sit inside any token and anywhere between tokens; the
    /// token after one keeps the position where the splice began when
    /// nothing but the splice separates it from the cursor.
    #[test]
    fn splices_inside_and_between_tokens() {
        // Identifier, then a token after the spliced line.
        assert_eq!(
            placed("foo\\\nbar baz\nqux"),
            ["foobar@1:1", "baz@2:5", "qux@3:1"]
        );
        // Number, including an exponent sign after the splice.
        assert_eq!(placed("12\\\n34 x"), ["1234@1:1", "x@2:4"]);
        assert_eq!(kinds("1e\\\n+3"), vec![TokenKind::Float(1000.0)]);
        // Multi-byte punctuators.
        assert_eq!(placed("p-\\\n>q"), ["p@1:1", "->@1:2", "q@2:2"]);
        assert_eq!(placed("a <\\\n<\\\n= b"), ["a@1:1", "<<=@1:3", "b@3:3"]);
        assert_eq!(placed("f(.\\\n..)"), ["f@1:1", "(@1:2", "...@1:3", ")@2:3"]);
        // A `//` comment continues over a splice; so does the `//` itself.
        assert_eq!(placed("a // c \\\n still c\nb"), ["a@1:1", "b@3:1"]);
        assert_eq!(placed("a /\\\n/ c\nb"), ["a@1:1", "b@3:1"]);
        assert_eq!(placed("a /\\\n* c *\\\n/ b"), ["a@1:1", "b@3:3"]);
        // A splice right before a token: the token is placed at the splice.
        assert_eq!(placed("a \\\nb"), ["a@1:1", "b@1:3"]);
        let ts = lex("\\\n#define X\n", FileId(0)).unwrap();
        assert!(ts[0].is_punct(Punct::Hash) && ts[0].first_on_line);
        assert_eq!(ts[0].loc, Loc::new(FileId(0), 1, 1));
        assert_eq!(ts[1].loc, Loc::new(FileId(0), 2, 2));
        // Blanks spliced onto blanks, then a newline that does end the line.
        let ts = lex("a \\\n  \nb", FileId(0)).unwrap();
        assert_eq!(ts[1].loc, Loc::new(FileId(0), 3, 1));
        assert!(ts[1].first_on_line);
        // CRLF splices.
        assert_eq!(placed("ab\\\r\ncd e"), ["abcd@1:1", "e@2:4"]);
        assert_eq!(placed("x +\\\r\n= 1"), ["x@1:1", "+=@1:3", "1@2:3"]);
        // Wide prefixes across a splice.
        assert_eq!(placed("L\\\n\"w\" L\\\n'c'"), ["\"w\"@1:1", "'\\x63'@2:5"]);
        // Inside a string literal.
        assert_eq!(placed("\"ab\\\ncd\" e"), ["\"abcd\"@1:1", "e@2:5"]);
        // A backslash that splices nothing is an error where it stands,
        // also as the last byte of the file.
        let e = lex("ab\\cd", FileId(0)).unwrap_err();
        assert_eq!(e.loc(), Loc::new(FileId(0), 1, 4));
        let e = lex("int x;\nab\\", FileId(0)).unwrap_err();
        assert_eq!(e.loc(), Loc::new(FileId(0), 2, 4));
        assert!(e.message().contains('\\'), "{e}");
        let e = lex("ab\\\r", FileId(0)).unwrap_err();
        assert_eq!(e.loc(), Loc::new(FileId(0), 1, 4));
    }

    #[test]
    fn multi_char_puncts() {
        let ks = kinds("a <<= b >>= c ... p->q");
        assert!(ks.contains(&TokenKind::Punct(Punct::ShlEq)));
        assert!(ks.contains(&TokenKind::Punct(Punct::ShrEq)));
        assert!(ks.contains(&TokenKind::Punct(Punct::Ellipsis)));
        assert!(ks.contains(&TokenKind::Punct(Punct::Arrow)));
    }

    #[test]
    fn errors() {
        assert!(lex("\"abc", FileId(0)).is_err());
        assert!(lex("/* abc", FileId(0)).is_err());
        assert!(lex("''", FileId(0)).is_err());
        assert!(lex("@", FileId(0)).is_err());
        assert!(lex("0x", FileId(0)).is_err());
        // Errors are placed where the old byte-at-a-time scanner stood.
        let e = lex("x = 0x;", FileId(0)).unwrap_err();
        assert_eq!(e.loc(), Loc::new(FileId(0), 1, 7));
        let e = lex("a\n  /* open", FileId(0)).unwrap_err();
        assert_eq!(e.loc(), Loc::new(FileId(0), 2, 3));
        let e = lex("s = \"open\nnext", FileId(0)).unwrap_err();
        assert_eq!(e.loc(), Loc::new(FileId(0), 1, 5));
    }

    #[test]
    fn locations() {
        let ts = lex("x\n  y", FileId(7)).unwrap();
        assert_eq!(ts[0].loc, Loc::new(FileId(7), 1, 1));
        assert_eq!(ts[1].loc, Loc::new(FileId(7), 2, 3));
    }
}
