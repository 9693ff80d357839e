//! Lexical tokens.
//!
//! A [`Token`] is a small `Copy` value: identifiers and string literals are
//! [`Symbol`]s into the translation unit's [`Interner`], so moving a token
//! between the lexer, the preprocessor and the parser never touches the
//! heap. The interner is per unit and travels with the tokens (inside a
//! [`TokenStream`]); a process-wide one would put a lock between the compile
//! workers and grow without bound in a long-lived server.
//!
//! The lexer deliberately does *not* distinguish keywords from identifiers:
//! the preprocessor must treat `int` and `while` as ordinary identifiers when
//! expanding macros, so keyword recognition happens in the parser — as an
//! integer compare, because every interner starts with the keywords at fixed
//! ids ([`sym`]).

use crate::span::Loc;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;
use std::ops::Deref;

/// All C punctuators (plus the preprocessing-only `#` and `##`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Punct {
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Semi,
    Colon,
    Question,
    Tilde,
    Dot,
    Arrow,
    PlusPlus,
    MinusMinus,
    Amp,
    Star,
    Plus,
    Minus,
    Bang,
    Slash,
    Percent,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    BangEq,
    Caret,
    Pipe,
    AmpAmp,
    PipePipe,
    Eq,
    StarEq,
    SlashEq,
    PercentEq,
    PlusEq,
    MinusEq,
    ShlEq,
    ShrEq,
    AmpEq,
    CaretEq,
    PipeEq,
    Ellipsis,
    Hash,
    HashHash,
}

impl Punct {
    /// The textual spelling of the punctuator.
    pub fn as_str(self) -> &'static str {
        use Punct::*;
        match self {
            LParen => "(",
            RParen => ")",
            LBracket => "[",
            RBracket => "]",
            LBrace => "{",
            RBrace => "}",
            Comma => ",",
            Semi => ";",
            Colon => ":",
            Question => "?",
            Tilde => "~",
            Dot => ".",
            Arrow => "->",
            PlusPlus => "++",
            MinusMinus => "--",
            Amp => "&",
            Star => "*",
            Plus => "+",
            Minus => "-",
            Bang => "!",
            Slash => "/",
            Percent => "%",
            Shl => "<<",
            Shr => ">>",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            EqEq => "==",
            BangEq => "!=",
            Caret => "^",
            Pipe => "|",
            AmpAmp => "&&",
            PipePipe => "||",
            Eq => "=",
            StarEq => "*=",
            SlashEq => "/=",
            PercentEq => "%=",
            PlusEq => "+=",
            MinusEq => "-=",
            ShlEq => "<<=",
            ShrEq => ">>=",
            AmpEq => "&=",
            CaretEq => "^=",
            PipeEq => "|=",
            Ellipsis => "...",
            Hash => "#",
            HashHash => "##",
        }
    }
}

impl fmt::Display for Punct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Suffix attached to an integer literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct IntSuffix {
    pub unsigned: bool,
    /// Number of `l`s: 0, 1, or 2.
    pub long: u8,
}

/// An interned spelling: an index into the [`Interner`] of the translation
/// unit the token belongs to. Comparing two symbols of one unit compares
/// their spellings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The symbol's dense index (its position in interning order).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// True when the spelling is a C keyword (C89 + `inline`, `restrict`,
    /// `_Bool`): the keywords hold the lowest ids of every interner.
    pub fn is_keyword(self) -> bool {
        self.0 < KEYWORD_COUNT
    }
}

/// A set of symbols of one interner, one bit per id: membership is a shift
/// and a mask, cheap enough to ask for every identifier of a unit.
#[derive(Debug, Default, Clone)]
pub struct SymbolSet {
    words: Vec<u64>,
}

impl SymbolSet {
    /// Adds `s`.
    pub fn insert(&mut self, s: Symbol) {
        let word = s.index() / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (s.index() % 64);
    }

    /// Removes `s`; a no-op when it is not a member.
    pub fn remove(&mut self, s: Symbol) {
        if let Some(word) = self.words.get_mut(s.index() / 64) {
            *word &= !(1 << (s.index() % 64));
        }
    }

    /// True when `s` is a member.
    pub fn contains(&self, s: Symbol) -> bool {
        self.words
            .get(s.index() / 64)
            .is_some_and(|w| w >> (s.index() % 64) & 1 != 0)
    }
}

/// Declares the spellings every [`Interner`] holds at fixed ids, and a
/// constant in [`sym`] for each.
macro_rules! preinterned {
    ($($name:ident $text:literal)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        #[repr(u32)]
        enum Fixed { $($name),* }

        const FIXED: &[&str] = &[$($text),*];

        /// The pre-interned symbols: C keywords first, then the other names
        /// the preprocessor and parser test for.
        pub mod sym {
            use super::{Fixed, Symbol};
            $(pub const $name: Symbol = Symbol(Fixed::$name as u32);)*
        }
    };
}

preinterned! {
    AUTO "auto" BREAK "break" CASE "case" CHAR "char" CONST "const"
    CONTINUE "continue" DEFAULT "default" DO "do" DOUBLE "double" ELSE "else"
    ENUM "enum" EXTERN "extern" FLOAT "float" FOR "for" GOTO "goto" IF "if"
    INLINE "inline" INT "int" LONG "long" REGISTER "register" RETURN "return"
    SHORT "short" SIGNED "signed" SIZEOF "sizeof" STATIC "static"
    STRUCT "struct" SWITCH "switch" TYPEDEF "typedef" UNION "union"
    UNSIGNED "unsigned" VOID "void" VOLATILE "volatile" WHILE "while"
    RESTRICT "restrict" BOOL "_Bool"
    // Not keywords: GNU decorations the parser skips, and the names the
    // preprocessor gives a meaning (directives share `if` and `else` with
    // the keywords).
    GNU_EXTENSION "__extension__" GNU_RESTRICT "__restrict"
    GNU_RESTRICT2 "__restrict__" GNU_INLINE "__inline" GNU_INLINE2 "__inline__"
    GNU_CONST "__const" GNU_VOLATILE "__volatile__" GNU_SIGNED "__signed__"
    GNU_ATTRIBUTE "__attribute__" GNU_ASM "__asm__" GNU_ASM2 "__asm"
    DEFINED "defined" VA_ARGS "__VA_ARGS__"
    IFDEF "ifdef" IFNDEF "ifndef" ELIF "elif" ENDIF "endif" DEFINE "define"
    UNDEF "undef" INCLUDE "include" ERROR "error" LINE "line"
    WARNING "warning" PRAGMA "pragma" IDENT "ident"
}

/// `_Bool` is the last keyword in the table above.
const KEYWORD_COUNT: u32 = Fixed::BOOL as u32 + 1;

/// One slot of the interner's open-addressing table.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Low 32 bits of the spelling's hash: picks the home slot and filters
    /// probe-chain neighbours before any string compare.
    hash: u32,
    /// Symbol id, or [`Slot::EMPTY`].
    id: u32,
}

impl Slot {
    const EMPTY: u32 = u32::MAX;
}

/// The spellings of one translation unit's identifiers and string literals.
///
/// All text lives back to back in one buffer and the lookup table holds
/// ids, so interning a spelling seen before allocates nothing and a new one
/// only grows three vectors. Hashing is keyed per interner (std's
/// `RandomState`): identifiers come from outside the program.
#[derive(Debug, Clone)]
pub struct Interner {
    text: String,
    /// `ends[i]` is where symbol `i`'s spelling ends in `text`; it starts
    /// where symbol `i - 1` ends.
    ends: Vec<usize>,
    /// Power-of-two sized, at most half full.
    table: Vec<Slot>,
    hasher: RandomState,
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

impl Interner {
    /// An interner holding only the pre-interned spellings ([`sym`]).
    pub fn new() -> Self {
        let mut interner = Interner {
            text: String::new(),
            ends: Vec::new(),
            table: vec![
                Slot {
                    hash: 0,
                    id: Slot::EMPTY
                };
                1024
            ],
            hasher: RandomState::new(),
        };
        for s in FIXED {
            interner.intern(s);
        }
        interner
    }

    /// The symbol for `s`, interning it on first sight.
    pub fn intern(&mut self, s: &str) -> Symbol {
        let hash = self.hasher.hash_one(s) as u32;
        let mask = self.table.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.table[i];
            if slot.id == Slot::EMPTY {
                break;
            }
            if slot.hash == hash && self.resolve(Symbol(slot.id)) == s {
                return Symbol(slot.id);
            }
            i = (i + 1) & mask;
        }
        // A symbol costs at least twelve bytes here and a token at the
        // lexer, so memory runs out long before ids do.
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != Slot::EMPTY)
            .expect("fewer than 2^32 - 1 distinct spellings in one translation unit");
        self.text.push_str(s);
        self.ends.push(self.text.len());
        self.table[i] = Slot { hash, id };
        if self.ends.len() * 2 > self.table.len() {
            self.grow();
        }
        Symbol(id)
    }

    fn grow(&mut self) {
        let mut table = vec![
            Slot {
                hash: 0,
                id: Slot::EMPTY
            };
            self.table.len() * 2
        ];
        let mask = table.len() - 1;
        for slot in self.table.iter().filter(|s| s.id != Slot::EMPTY) {
            let mut i = slot.hash as usize & mask;
            while table[i].id != Slot::EMPTY {
                i = (i + 1) & mask;
            }
            table[i] = *slot;
        }
        self.table = table;
    }

    /// The spelling of `sym`.
    ///
    /// # Panics
    ///
    /// Panics when `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// Number of distinct spellings interned so far.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Never true: the pre-interned spellings are always present.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// The payload of a token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (keywords are classified by the parser).
    Ident(Symbol),
    /// Integer constant (value after radix conversion) plus its suffix.
    Int(u64, IntSuffix),
    /// Floating constant.
    Float(f64),
    /// Character constant (value of the character, host `char` semantics).
    Char(i64),
    /// String literal (escapes decoded). Adjacent literals are concatenated
    /// by the parser.
    Str(Symbol),
    /// Punctuator.
    Punct(Punct),
    /// End of input. Emitted once, at the very end of a token stream.
    Eof,
}

impl TokenKind {
    /// True for identifier tokens.
    pub fn is_ident(&self) -> bool {
        matches!(self, TokenKind::Ident(_))
    }

    /// Returns the identifier's symbol if this is an identifier.
    pub fn ident(&self) -> Option<Symbol> {
        match self {
            TokenKind::Ident(s) => Some(*s),
            _ => None,
        }
    }

    /// The source spelling of the token (what `#` and `##` see), for
    /// formatting with `{}`.
    pub fn display<'a>(&self, interner: &'a Interner) -> Spelling<'a> {
        Spelling {
            kind: *self,
            interner,
        }
    }
}

/// A [`TokenKind`] paired with the interner that spells it; see
/// [`TokenKind::display`].
#[derive(Debug, Clone, Copy)]
pub struct Spelling<'a> {
    kind: TokenKind,
    interner: &'a Interner,
}

impl fmt::Display for Spelling<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TokenKind::Ident(s) => f.write_str(self.interner.resolve(s)),
            TokenKind::Int(v, sfx) => {
                write!(f, "{v}")?;
                if sfx.unsigned {
                    write!(f, "u")?;
                }
                for _ in 0..sfx.long {
                    write!(f, "l")?;
                }
                Ok(())
            }
            TokenKind::Float(v) => write!(f, "{v}"),
            TokenKind::Char(v) => write!(f, "'\\x{v:x}'"),
            TokenKind::Str(s) => write!(f, "{:?}", self.interner.resolve(s)),
            TokenKind::Punct(p) => write!(f, "{p}"),
            TokenKind::Eof => f.write_str("<eof>"),
        }
    }
}

/// A lexed token with location and layout metadata used by the preprocessor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub loc: Loc,
    /// True when this token is the first on its (logical) source line.
    /// Directive recognition (`#` first on a line) relies on this.
    pub first_on_line: bool,
    /// True when whitespace (or a comment) immediately precedes this token.
    /// Needed for correct stringification (`#arg`).
    pub space_before: bool,
}

// Tokens are copied by the slice through the preprocessor's fast lane; keep
// them two to a cache line.
const _: () = assert!(std::mem::size_of::<Token>() <= 32);

impl Token {
    /// Creates a synthesized token (no meaningful layout flags).
    pub fn synth(kind: TokenKind, loc: Loc) -> Self {
        Token {
            kind,
            loc,
            first_on_line: false,
            space_before: true,
        }
    }

    /// True if this token is the punctuator `p`.
    pub fn is_punct(&self, p: Punct) -> bool {
        self.kind == TokenKind::Punct(p)
    }

    /// True if this token is the identifier `name`.
    pub fn is_ident(&self, name: Symbol) -> bool {
        self.kind == TokenKind::Ident(name)
    }
}

/// A token sequence together with the interner its symbols index — what the
/// lexer and the preprocessor hand to the parser. Dereferences to the token
/// slice.
#[derive(Debug, Clone)]
pub struct TokenStream {
    tokens: Vec<Token>,
    interner: Interner,
}

impl TokenStream {
    pub(crate) fn new(tokens: Vec<Token>, interner: Interner) -> Self {
        TokenStream { tokens, interner }
    }

    /// The interner that spells this stream's symbols.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The spelling of an identifier or string-literal token of this
    /// stream; `None` for every other kind.
    pub fn text(&self, t: &Token) -> Option<&str> {
        match t.kind {
            TokenKind::Ident(s) | TokenKind::Str(s) => Some(self.interner.resolve(s)),
            _ => None,
        }
    }

    /// True if `t` is the identifier spelled `name`.
    pub fn is_ident(&self, t: &Token, name: &str) -> bool {
        t.kind.is_ident() && self.text(t) == Some(name)
    }

    pub(crate) fn into_parts(self) -> (Vec<Token>, Interner) {
        (self.tokens, self.interner)
    }
}

impl Deref for TokenStream {
    type Target = [Token];

    fn deref(&self) -> &[Token] {
        &self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn punct_spellings_roundtrip() {
        assert_eq!(Punct::Arrow.as_str(), "->");
        assert_eq!(Punct::ShlEq.as_str(), "<<=");
        assert_eq!(format!("{}", Punct::Ellipsis), "...");
    }

    #[test]
    fn interner_roundtrips_and_dedups() {
        let mut i = Interner::new();
        let fixed = i.len();
        let foo = i.intern("foo");
        assert_eq!(i.intern("foo"), foo);
        assert_ne!(i.intern("bar"), foo);
        assert_eq!(i.resolve(foo), "foo");
        assert_eq!(i.len(), fixed + 2);
        // The empty spelling (`""` string literals) is a symbol like any other.
        let empty = i.intern("");
        assert_eq!(i.resolve(empty), "");
        // Far past the initial table: growth keeps every id findable.
        let syms: Vec<Symbol> = (0..5000).map(|n| i.intern(&format!("name{n}"))).collect();
        for (n, s) in syms.iter().enumerate() {
            assert_eq!(i.resolve(*s), format!("name{n}"));
            assert_eq!(i.intern(&format!("name{n}")), *s);
        }
        assert_eq!(i.intern("foo"), foo);
    }

    #[test]
    fn symbol_set_membership() {
        let mut i = Interner::new();
        let near = i.intern("near");
        let far = (0..300).map(|n| i.intern(&format!("n{n}"))).last().unwrap();
        let mut set = SymbolSet::default();
        assert!(!set.contains(near) && !set.contains(far));
        set.remove(far); // not a member, beyond the words held: a no-op
        set.insert(far);
        set.insert(near);
        assert!(set.contains(near) && set.contains(far));
        assert!(!set.contains(sym::INT));
        set.remove(near);
        assert!(!set.contains(near) && set.contains(far));
    }

    #[test]
    fn keywords_sit_at_fixed_ids() {
        let mut i = Interner::new();
        assert_eq!(i.intern("auto"), sym::AUTO);
        assert_eq!(i.intern("while"), sym::WHILE);
        assert_eq!(i.intern("_Bool"), sym::BOOL);
        assert_eq!(i.intern("__VA_ARGS__"), sym::VA_ARGS);
        assert_eq!(i.resolve(sym::GNU_ATTRIBUTE), "__attribute__");
        const KEYWORDS: &[&str] = &[
            "auto", "break", "case", "char", "const", "continue", "default", "do", "double",
            "else", "enum", "extern", "float", "for", "goto", "if", "inline", "int", "long",
            "register", "return", "short", "signed", "sizeof", "static", "struct", "switch",
            "typedef", "union", "unsigned", "void", "volatile", "while", "restrict", "_Bool",
        ];
        for (id, text) in FIXED.iter().enumerate() {
            let s = i.intern(text);
            assert_eq!(s.index(), id, "{text}");
            assert_eq!(s.is_keyword(), KEYWORDS.contains(text), "{text}");
        }
        assert_eq!(i.len(), FIXED.len(), "no spelling is listed twice");
        assert!(!i.intern("main").is_keyword());
        assert!(!sym::DEFINED.is_keyword());
    }

    #[test]
    fn token_helpers() {
        let mut i = Interner::new();
        let foo = i.intern("foo");
        let t = Token::synth(TokenKind::Ident(foo), Loc::BUILTIN);
        assert!(t.is_ident(foo));
        assert!(!t.is_ident(sym::INT));
        assert!(t.kind.is_ident());
        assert_eq!(t.kind.ident(), Some(foo));
        let p = Token::synth(TokenKind::Punct(Punct::Star), Loc::BUILTIN);
        assert!(p.is_punct(Punct::Star));
        assert!(!p.is_punct(Punct::Amp));
        let ts = TokenStream::new(vec![t, p], i);
        assert!(ts.is_ident(&ts[0], "foo"));
        assert!(!ts.is_ident(&ts[1], "foo"));
        assert_eq!(ts.text(&ts[1]), None);
    }

    #[test]
    fn display_tokens() {
        let mut i = Interner::new();
        let kind = TokenKind::Int(
            42,
            IntSuffix {
                unsigned: true,
                long: 1,
            },
        );
        assert_eq!(kind.display(&i).to_string(), "42ul");
        let s = TokenKind::Str(i.intern("a\"b"));
        assert_eq!(s.display(&i).to_string(), "\"a\\\"b\"");
        assert_eq!(TokenKind::Ident(sym::INT).display(&i).to_string(), "int");
    }
}
