//! Recursive-descent parser for C.
//!
//! Consumes the preprocessed token stream and produces a
//! [`TranslationUnit`]. Keywords are classified here (the lexer emits plain
//! identifiers), and typedef names are tracked through a scope stack — the
//! classic "lexer hack" done parser-side.

mod decl;
mod expr;
mod stmt;

use crate::ast::{Expr, ExprKind, TranslationUnit, UnaryOp};
use crate::error::{CError, Result};
use crate::pp::FrontendLimits;
use crate::span::Loc;
use crate::token::{sym, Interner, Punct, Symbol, SymbolSet, Token, TokenKind, TokenStream};
use crate::types::{Type, TypeTable};
use std::collections::HashMap;

/// Parses a preprocessed token stream into a translation unit, with the
/// default [`FrontendLimits`].
///
/// # Errors
///
/// Returns [`CError::Parse`] on any syntax error. The parser does not attempt
/// error recovery; the first error aborts the unit.
pub fn parse(tokens: TokenStream, file: impl Into<String>) -> Result<TranslationUnit> {
    parse_with(tokens, file, &FrontendLimits::default())
}

/// [`parse`] under explicit resource budgets: recursion bounded by
/// `limits.max_parser_depth`, wall clock by `limits.deadline_ms`. Both
/// overruns surface as typed [`CError::Budget`] errors.
pub fn parse_with(
    tokens: TokenStream,
    file: impl Into<String>,
    limits: &FrontendLimits,
) -> Result<TranslationUnit> {
    let mut p = Parser::new(tokens);
    p.max_depth = limits.parser_depth();
    p.deadline = limits.deadline_from_now();
    p.deadline_ms = limits.deadline_ms;
    let mut items = Vec::new();
    while !p.at_eof() {
        p.check_deadline()?;
        if let Some(item) = p.parse_external_decl()? {
            items.push(item);
        }
    }
    Ok(TranslationUnit {
        file: file.into(),
        items,
        types: p.types,
        enum_constants: p.enum_constants,
        interner: p.interner,
    })
}

/// What a name means in the current scope.
#[derive(Debug, Clone)]
pub(crate) enum NameKind {
    /// A typedef name aliasing this type.
    Typedef(Type),
    /// An ordinary identifier (variable/function), which shadows any outer
    /// typedef of the same name.
    Ordinary,
}

pub(crate) struct Parser {
    toks: Vec<Token>,
    /// Spells the symbols of `toks`; it becomes the unit's, so the AST
    /// stores symbols and no spelling is copied.
    interner: Interner,
    pos: usize,
    /// Current expression/declarator recursion depth (guards the
    /// recursive-descent parser against stack overflow on pathological
    /// nesting).
    depth: u32,
    /// Recursion bound (from [`FrontendLimits::parser_depth`]).
    max_depth: u32,
    /// Per-unit wall-clock deadline, checked between external declarations
    /// and periodically inside deep recursion.
    deadline: Option<std::time::Instant>,
    deadline_ms: u64,
    /// [`Parser::enter`] calls since the last deadline check.
    deadline_ticks: u32,
    pub(crate) types: TypeTable,
    scopes: Vec<HashMap<Symbol, NameKind>>,
    /// Names declared a typedef in any scope so far: most identifiers never
    /// are, and [`Parser::typedef_lookup`] answers for them without walking
    /// the scopes.
    typedef_names: SymbolSet,
    pub(crate) enum_constants: SymbolSet,
    /// Values of enum constants, for constant folding.
    pub(crate) enum_values: HashMap<Symbol, i64>,
}

impl Parser {
    fn new(tokens: TokenStream) -> Self {
        let (toks, interner) = tokens.into_parts();
        Parser {
            toks,
            interner,
            pos: 0,
            depth: 0,
            max_depth: 64,
            deadline: None,
            deadline_ms: 0,
            deadline_ticks: 0,
            types: TypeTable::new(),
            scopes: vec![HashMap::new()],
            typedef_names: SymbolSet::default(),
            enum_constants: SymbolSet::default(),
            enum_values: HashMap::new(),
        }
    }

    // ----- cursor -------------------------------------------------------

    pub(crate) fn at_eof(&self) -> bool {
        self.pos >= self.toks.len()
    }

    pub(crate) fn peek(&self) -> TokenKind {
        self.peek_ahead(0)
    }

    pub(crate) fn peek_ahead(&self, n: usize) -> TokenKind {
        self.toks
            .get(self.pos + n)
            .map_or(TokenKind::Eof, |t| t.kind)
    }

    pub(crate) fn loc(&self) -> Loc {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(Loc::BUILTIN, |t| t.loc)
    }

    pub(crate) fn bump(&mut self) -> TokenKind {
        let k = self.peek();
        self.pos += 1;
        k
    }

    /// Raw cursor position, for save/replay of declarator tokens.
    pub(crate) fn pos_raw(&self) -> usize {
        self.pos
    }

    /// Restores a cursor position previously obtained from [`Self::pos_raw`].
    pub(crate) fn restore_pos(&mut self, p: usize) {
        self.pos = p;
    }

    /// Enters one level of recursive parsing; errors beyond the nesting
    /// limit instead of overflowing the stack.
    pub(crate) fn enter(&mut self) -> Result<DepthGuard> {
        if self.depth >= self.max_depth {
            return Err(CError::budget(
                format!(
                    "expression or declarator nested too deeply (limit {})",
                    self.max_depth
                ),
                self.loc(),
            ));
        }
        self.depth += 1;
        self.deadline_ticks += 1;
        if self.deadline_ticks >= 4096 {
            self.deadline_ticks = 0;
            self.check_deadline()?;
        }
        Ok(DepthGuard)
    }

    /// Errors out when the per-unit wall-clock deadline has passed.
    pub(crate) fn check_deadline(&self) -> Result<()> {
        if let Some(deadline) = self.deadline {
            if std::time::Instant::now() > deadline {
                return Err(CError::budget(
                    format!("parsing exceeded the {} ms deadline", self.deadline_ms),
                    self.loc(),
                ));
            }
        }
        Ok(())
    }

    pub(crate) fn leave(&mut self, _g: DepthGuard) {
        self.depth -= 1;
    }

    pub(crate) fn err(&self, msg: impl Into<String>) -> CError {
        let mut msg = msg.into();
        if !self.at_eof() {
            msg = format!("{msg} (found `{}`)", self.peek().display(&self.interner));
        } else {
            msg = format!("{msg} (at end of input)");
        }
        CError::parse(msg, self.loc())
    }

    /// True if the current token is the punctuator `p`.
    pub(crate) fn at_punct(&self, p: Punct) -> bool {
        self.peek() == TokenKind::Punct(p)
    }

    /// Consumes `p` when present.
    pub(crate) fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Requires and consumes `p`.
    pub(crate) fn expect_punct(&mut self, p: Punct) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", p.as_str())))
        }
    }

    /// True if the current token is the identifier/keyword `kw`.
    pub(crate) fn at_kw(&self, kw: Symbol) -> bool {
        self.peek() == TokenKind::Ident(kw)
    }

    /// Consumes the keyword when present.
    pub(crate) fn eat_kw(&mut self, kw: Symbol) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Requires and consumes the keyword.
    pub(crate) fn expect_kw(&mut self, kw: Symbol) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", self.interner.resolve(kw))))
        }
    }

    /// Consumes an identifier that is not a keyword, when one is at the
    /// cursor.
    pub(crate) fn eat_ident(&mut self) -> Option<Symbol> {
        match self.peek() {
            TokenKind::Ident(s) if !s.is_keyword() => {
                self.pos += 1;
                Some(s)
            }
            _ => None,
        }
    }

    /// Consumes and returns an identifier that is not a keyword.
    pub(crate) fn expect_ident(&mut self) -> Result<(Symbol, Loc)> {
        let loc = self.loc();
        match self.eat_ident() {
            Some(s) => Ok((s, loc)),
            None => Err(self.err("expected identifier")),
        }
    }

    // ----- scopes -------------------------------------------------------

    pub(crate) fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    pub(crate) fn pop_scope(&mut self) {
        self.scopes.pop();
        debug_assert!(!self.scopes.is_empty(), "popped file scope");
    }

    pub(crate) fn declare_typedef(&mut self, name: Symbol, ty: Type) {
        self.typedef_names.insert(name);
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name, NameKind::Typedef(ty));
    }

    /// Declares an ordinary identifier. Only a name that is a typedef
    /// somewhere needs the entry (it shadows the typedef): a typedef is
    /// declared into the innermost scope, so one declared later never sits
    /// outside this scope, and [`Parser::typedef_lookup`] answers for every
    /// other name without a scope entry.
    pub(crate) fn declare_ordinary(&mut self, name: Symbol) {
        if self.typedef_names.contains(name) {
            self.scopes
                .last_mut()
                .expect("scope stack never empty")
                .insert(name, NameKind::Ordinary);
        }
    }

    /// Resolves a name to a typedef'd type, respecting shadowing.
    pub(crate) fn typedef_lookup(&self, name: Symbol) -> Option<&Type> {
        if !self.typedef_names.contains(name) {
            return None;
        }
        for scope in self.scopes.iter().rev() {
            match scope.get(&name) {
                Some(NameKind::Typedef(t)) => return Some(t),
                Some(NameKind::Ordinary) => return None,
                None => {}
            }
        }
        None
    }

    // ----- GNU extensions we skip over ----------------------------------

    /// Skips `__attribute__((...))`, `__asm__("...")`, `__extension__`,
    /// `__restrict`, and similar decorations. Returns true if anything was
    /// consumed.
    pub(crate) fn skip_gnu_extensions(&mut self) -> Result<bool> {
        let mut any = false;
        loop {
            match self.peek() {
                TokenKind::Ident(
                    sym::GNU_EXTENSION
                    | sym::GNU_RESTRICT
                    | sym::GNU_RESTRICT2
                    | sym::GNU_INLINE
                    | sym::GNU_INLINE2
                    | sym::GNU_CONST
                    | sym::GNU_VOLATILE
                    | sym::GNU_SIGNED,
                ) => {
                    self.pos += 1;
                    any = true;
                }
                TokenKind::Ident(sym::GNU_ATTRIBUTE | sym::GNU_ASM | sym::GNU_ASM2) => {
                    self.pos += 1;
                    self.skip_balanced_parens()?;
                    any = true;
                }
                _ => return Ok(any),
            }
        }
    }

    /// Skips a balanced `( ... )` group.
    pub(crate) fn skip_balanced_parens(&mut self) -> Result<()> {
        self.expect_punct(Punct::LParen)?;
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump() {
                TokenKind::Punct(Punct::LParen) => depth += 1,
                TokenKind::Punct(Punct::RParen) => depth -= 1,
                TokenKind::Eof => return Err(self.err("unterminated parentheses")),
                _ => {}
            }
        }
        Ok(())
    }

    // ----- constant folding ---------------------------------------------

    /// Best-effort integer constant folding, used for array sizes, enum
    /// values and bit-field widths. Returns `None` for non-constant or
    /// unsupported expressions.
    pub(crate) fn eval_const(&self, e: &Expr) -> Option<i64> {
        use crate::ast::BinaryOp::*;
        Some(match &e.kind {
            ExprKind::IntLit(v) => *v as i64,
            ExprKind::CharLit(v) => *v,
            ExprKind::Ident(name) => *self.enum_values.get(name)?,
            ExprKind::Unary(op, inner) => {
                let v = self.eval_const(inner)?;
                match op {
                    UnaryOp::Neg => v.wrapping_neg(),
                    UnaryOp::Pos => v,
                    UnaryOp::LogicalNot => i64::from(v == 0),
                    UnaryOp::BitNot => !v,
                    _ => return None,
                }
            }
            ExprKind::Binary(op, l, r) => {
                let l = self.eval_const(l)?;
                let r = self.eval_const(r)?;
                match op {
                    Add => l.wrapping_add(r),
                    Sub => l.wrapping_sub(r),
                    Mul => l.wrapping_mul(r),
                    Div => {
                        if r == 0 {
                            return None;
                        }
                        l.wrapping_div(r)
                    }
                    Rem => {
                        if r == 0 {
                            return None;
                        }
                        l.wrapping_rem(r)
                    }
                    Shl => l.wrapping_shl(r as u32 & 63),
                    Shr => l.wrapping_shr(r as u32 & 63),
                    Lt => i64::from(l < r),
                    Gt => i64::from(l > r),
                    Le => i64::from(l <= r),
                    Ge => i64::from(l >= r),
                    Eq => i64::from(l == r),
                    Ne => i64::from(l != r),
                    BitAnd => l & r,
                    BitXor => l ^ r,
                    BitOr => l | r,
                    LogAnd => i64::from(l != 0 && r != 0),
                    LogOr => i64::from(l != 0 || r != 0),
                }
            }
            ExprKind::Cond(c, t, f) => {
                if self.eval_const(c)? != 0 {
                    self.eval_const(t)?
                } else {
                    self.eval_const(f)?
                }
            }
            ExprKind::Cast(_, inner) => self.eval_const(inner)?,
            ExprKind::SizeofType(ty) => self.types.size_of(ty)? as i64,
            ExprKind::SizeofExpr(_) => return None,
            _ => return None,
        })
    }
}

/// Token for one level of parser recursion (returned by [`Parser::enter`]).
pub(crate) struct DepthGuard;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::span::FileId;

    pub(crate) fn parse_str(src: &str) -> Result<TranslationUnit> {
        let toks = lex(src, FileId(0)).unwrap();
        parse(toks, "test.c")
    }

    #[test]
    fn empty_unit() {
        let tu = parse_str("").unwrap();
        assert!(tu.items.is_empty());
    }

    #[test]
    fn stray_token_is_error() {
        assert!(parse_str("42;").is_err());
    }

    #[test]
    fn parser_depth_is_budgeted_and_configurable() {
        let src = format!("int x = {}1{};", "(".repeat(40), ")".repeat(40));
        let toks = lex(&src, FileId(0)).unwrap();
        let limits = FrontendLimits {
            max_parser_depth: 16,
            ..FrontendLimits::default()
        };
        let e = parse_with(toks, "deep.c", &limits).unwrap_err();
        assert!(e.is_budget(), "{e}");
        // The default bound of 64 accepts the same 40-deep nesting.
        let toks = lex(&src, FileId(0)).unwrap();
        assert!(parse(toks, "deep.c").is_ok());
        // Far past any bound, still a typed error — never a stack overflow.
        let src = format!("int x = {}1{};", "(".repeat(20_000), ")".repeat(20_000));
        let toks = lex(&src, FileId(0)).unwrap();
        let e = parse(toks, "deeper.c").unwrap_err();
        assert!(e.is_budget(), "{e}");
    }
}
