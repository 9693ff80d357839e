//! Macro expansion.
//!
//! A simplified variant of Prosser's hide-set algorithm: every token in
//! flight carries the set of macro names whose expansion produced it; a
//! name in its own hide set is never re-expanded, which guarantees
//! termination on self-referential macros (`#define a a`).
//!
//! Only lines that mention a defined macro come here (see the fast lane in
//! [`super`]); hide sets are nodes in an arena that grows when a macro
//! actually expands, never per token.

use crate::error::{CError, Result};
use crate::lexer;
use crate::span::Loc;
use crate::token::{sym, Interner, Punct, Symbol, SymbolSet, Token, TokenKind};
use std::collections::HashMap;

/// A macro definition.
#[derive(Debug, Clone, PartialEq)]
pub enum MacroDef {
    /// `#define NAME body...`
    Object { body: Vec<Token> },
    /// `#define NAME(params...) body...`
    Function {
        params: Vec<Symbol>,
        variadic: bool,
        body: Vec<Token>,
    },
}

/// Table of live macro definitions, keyed by the name's [`Symbol`].
///
/// Beside the definitions it keeps the set of defined names as one bit per
/// symbol, so asking whether an identifier is a macro — the test the
/// preprocessor makes for every identifier of every line — hashes nothing.
#[derive(Debug, Default, Clone)]
pub struct MacroTable {
    defs: HashMap<Symbol, MacroDef>,
    defined: SymbolSet,
}

impl MacroTable {
    /// An empty table.
    pub fn new() -> Self {
        MacroTable::default()
    }

    /// Defines (or redefines) `name`.
    pub fn insert(&mut self, name: Symbol, def: MacroDef) {
        self.defined.insert(name);
        self.defs.insert(name, def);
    }

    /// Undefines `name`; a no-op when it is not defined.
    pub fn remove(&mut self, name: Symbol) {
        self.defined.remove(name);
        self.defs.remove(&name);
    }

    /// True while `name` is defined.
    pub fn contains(&self, name: Symbol) -> bool {
        self.defined.contains(name)
    }

    /// The definition of `name`, if it is defined.
    pub fn get(&self, name: Symbol) -> Option<&MacroDef> {
        if self.contains(name) {
            self.defs.get(&name)
        } else {
            None
        }
    }
}

/// A hide set: 0 for the empty set, otherwise one more than the index of
/// its newest node in [`Expander::hides`].
type HideSet = usize;

/// One hide-set node: a macro name and the set it was added to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HideNode {
    name: Symbol,
    rest: HideSet,
}

/// A token in flight through the expander, with its hide set.
#[derive(Debug, Clone, Copy)]
struct PTok {
    tok: Token,
    hide: HideSet,
}

/// Statistics from macro expansion, plus the expansion budget.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExpandStats {
    /// Number of macro invocations expanded.
    pub expansions: usize,
    /// Budget: expansions allowed before a typed [`CError::Budget`] fires
    /// (0 = unlimited). Rides in the stats struct so every expansion site —
    /// lines, conditionals, `#include` arguments — draws from one tank.
    pub fuel: usize,
    /// Live macro-argument pre-expansion nesting depth. Argument expansion
    /// is the only call-stack recursion in the expander, so `F(F(F(...` is
    /// bounded here rather than by the thread stack.
    pub depth: u32,
}

/// Deepest macro-argument nesting before a typed budget error.
const MAX_ARG_DEPTH: u32 = 256;

impl ExpandStats {
    /// Counts one expansion against the fuel budget.
    fn burn(&mut self, loc: Loc) -> Result<()> {
        self.expansions += 1;
        if self.fuel != 0 && self.expansions > self.fuel {
            return Err(CError::budget(
                format!("macro expansion fuel exhausted ({} expansions)", self.fuel),
                loc,
            ));
        }
        Ok(())
    }
}

/// Everything one expansion needs: the macros, the unit's interner (`#` and
/// `##` make new spellings), the shared budget, and the hide-set arena.
pub(crate) struct Expander<'a> {
    pub macros: &'a MacroTable,
    pub interner: &'a mut Interner,
    pub stats: &'a mut ExpandStats,
    /// Hide-set nodes of the expansion under way; emptied by
    /// [`Expander::expand`], so it holds one logical line's worth.
    pub hides: &'a mut Vec<HideNode>,
}

impl Expander<'_> {
    /// Fully macro-expands `tokens`, appending the result to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`CError::Pp`] on malformed invocations (unterminated
    /// argument list, wrong arity) or invalid `##` pastes, and
    /// [`CError::Budget`] when the fuel or argument-nesting budget runs out.
    pub fn expand(&mut self, tokens: &[Token], out: &mut Vec<Token>) -> Result<()> {
        self.hides.clear();
        self.expand_into(tokens, out)
    }

    fn hidden(&self, mut set: HideSet, name: Symbol) -> bool {
        while set != 0 {
            let node = self.hides[set - 1];
            if node.name == name {
                return true;
            }
            set = node.rest;
        }
        false
    }

    /// `set` plus `name`: one node per expansion.
    fn hide(&mut self, set: HideSet, name: Symbol) -> HideSet {
        self.hides.push(HideNode { name, rest: set });
        self.hides.len()
    }

    fn expand_into(&mut self, tokens: &[Token], out: &mut Vec<Token>) -> Result<()> {
        let macros = self.macros;
        // The pending input as a stack: the next token is the last element.
        let mut input: Vec<PTok> = tokens
            .iter()
            .rev()
            .map(|&tok| PTok { tok, hide: 0 })
            .collect();
        while let Some(pt) = input.pop() {
            let loc = pt.tok.loc;
            let def = match pt.tok.kind {
                TokenKind::Ident(name) if !self.hidden(pt.hide, name) => {
                    macros.get(name).map(|def| (name, def))
                }
                _ => None,
            };
            let Some((name, def)) = def else {
                out.push(pt.tok);
                continue;
            };
            let replaced = match def {
                MacroDef::Object { body } => {
                    self.stats.burn(loc)?;
                    self.paste_tokens(body, loc)?
                }
                MacroDef::Function {
                    params,
                    variadic,
                    body,
                } => {
                    // A function-like macro name not followed by `(` is an
                    // ordinary identifier.
                    if !matches!(input.last(), Some(n) if n.tok.is_punct(Punct::LParen)) {
                        out.push(pt.tok);
                        continue;
                    }
                    input.pop(); // `(`
                    let args = collect_args(&mut input, loc)?;
                    let arity_ok = if *variadic {
                        args.len() >= params.len()
                    } else {
                        args.len() == params.len()
                            || (params.is_empty() && args.len() == 1 && args[0].is_empty())
                    };
                    if !arity_ok {
                        return Err(CError::pp(
                            format!(
                                "macro `{}` expects {} argument(s), got {}",
                                self.interner.resolve(name),
                                params.len(),
                                args.len()
                            ),
                            loc,
                        ));
                    }
                    self.stats.burn(loc)?;
                    self.substitute(body, params, *variadic, &args, loc)?
                }
            };
            let hide = self.hide(pt.hide, name);
            input.extend(replaced.into_iter().rev().map(|mut tok| {
                tok.loc = loc;
                PTok { tok, hide }
            }));
        }
        Ok(())
    }

    /// Substitutes parameters into a function-like macro body, handling `#`
    /// (stringification, unexpanded argument) and `##` (token paste,
    /// unexpanded operands). Other parameter uses receive the *fully
    /// expanded* argument.
    fn substitute(
        &mut self,
        body: &[Token],
        params: &[Symbol],
        variadic: bool,
        args: &[Vec<Token>],
        loc: Loc,
    ) -> Result<Vec<Token>> {
        // `usize::MAX` stands for `__VA_ARGS__`.
        let param_index = |t: &Token| -> Option<usize> {
            let name = t.kind.ident()?;
            if let Some(i) = params.iter().position(|&p| p == name) {
                return Some(i);
            }
            (variadic && name == sym::VA_ARGS).then_some(usize::MAX)
        };
        let arg_tokens = |idx: usize| -> Vec<Token> {
            if idx == usize::MAX {
                // __VA_ARGS__: the trailing arguments, comma-separated.
                let mut v = Vec::new();
                for (i, a) in args.iter().enumerate().skip(params.len()) {
                    if i > params.len() {
                        v.push(Token::synth(TokenKind::Punct(Punct::Comma), loc));
                    }
                    v.extend_from_slice(a);
                }
                v
            } else {
                args.get(idx).cloned().unwrap_or_default()
            }
        };
        // For `##` operands: a parameter becomes its unexpanded argument
        // tokens, anything else stays itself.
        let operand = |t: &Token| -> Vec<Token> {
            match param_index(t) {
                Some(idx) => arg_tokens(idx),
                None => vec![*t],
            }
        };

        let mut out: Vec<Token> = Vec::new();
        let mut i = 0;
        while i < body.len() {
            let t = &body[i];
            // Stringification: `#param`.
            if t.is_punct(Punct::Hash) {
                if let Some(idx) = body.get(i + 1).and_then(param_index) {
                    let text = stringify(&arg_tokens(idx), self.interner);
                    out.push(Token::synth(
                        TokenKind::Str(self.interner.intern(&text)),
                        loc,
                    ));
                    i += 2;
                    continue;
                }
                return Err(CError::pp("`#` not followed by a macro parameter", loc));
            }
            // Token paste: `lhs ## rhs` (left-associative chains).
            if body.get(i + 1).is_some_and(|n| n.is_punct(Punct::HashHash)) {
                let mut pasted = operand(t);
                let mut j = i + 1;
                while j < body.len() && body[j].is_punct(Punct::HashHash) {
                    let rhs = body
                        .get(j + 1)
                        .ok_or_else(|| CError::pp("`##` at end of macro body", loc))?;
                    pasted = self.paste_join(pasted, operand(rhs), loc)?;
                    j += 2;
                }
                out.extend(pasted);
                i = j;
                continue;
            }
            // Ordinary parameter: fully expanded argument.
            if let Some(idx) = param_index(t) {
                self.stats.depth += 1;
                if self.stats.depth > MAX_ARG_DEPTH {
                    self.stats.depth -= 1;
                    return Err(CError::budget(
                        format!("macro arguments nested too deeply (limit {MAX_ARG_DEPTH})"),
                        loc,
                    ));
                }
                // The argument starts over with empty hide sets; the arena
                // is shared, so the enclosing expansion's sets stay valid.
                let expanded = self.expand_into(&arg_tokens(idx), &mut out);
                self.stats.depth -= 1;
                expanded?;
                i += 1;
                continue;
            }
            out.push(*t);
            i += 1;
        }
        Ok(out)
    }

    /// Joins the last token of `lhs` with the first of `rhs` by re-lexing
    /// their concatenated spelling.
    fn paste_join(
        &mut self,
        mut lhs: Vec<Token>,
        mut rhs: Vec<Token>,
        loc: Loc,
    ) -> Result<Vec<Token>> {
        let (Some(&l), Some(&r)) = (lhs.last(), rhs.first()) else {
            lhs.append(&mut rhs);
            return Ok(lhs);
        };
        let text = format!(
            "{}{}",
            l.kind.display(self.interner),
            r.kind.display(self.interner)
        );
        let invalid = || CError::pp(format!("`##` produced invalid token `{text}`"), loc);
        let lexed = lexer::lex_into(&text, loc.file, self.interner).map_err(|_| invalid())?;
        let &[mut t] = lexed.as_slice() else {
            return Err(invalid());
        };
        t.loc = loc;
        lhs.pop();
        lhs.push(t);
        lhs.extend_from_slice(&rhs[1..]);
        Ok(lhs)
    }

    /// Handles `##` occurrences in an *object-like* macro body.
    fn paste_tokens(&mut self, body: &[Token], loc: Loc) -> Result<Vec<Token>> {
        if !body.iter().any(|t| t.is_punct(Punct::HashHash)) {
            return Ok(body.to_vec());
        }
        let mut out: Vec<Token> = Vec::new();
        let mut i = 0;
        while i < body.len() {
            if body.get(i + 1).is_some_and(|n| n.is_punct(Punct::HashHash)) {
                let mut pasted = vec![body[i]];
                let mut j = i + 1;
                while j < body.len() && body[j].is_punct(Punct::HashHash) {
                    let rhs = body
                        .get(j + 1)
                        .ok_or_else(|| CError::pp("`##` at end of macro body", loc))?;
                    pasted = self.paste_join(pasted, vec![*rhs], loc)?;
                    j += 2;
                }
                out.extend(pasted);
                i = j;
            } else {
                out.push(body[i]);
                i += 1;
            }
        }
        Ok(out)
    }
}

/// Collects macro arguments after the opening parenthesis (which the caller
/// consumed). Arguments are comma-separated at paren/bracket/brace depth 0.
fn collect_args(input: &mut Vec<PTok>, loc: Loc) -> Result<Vec<Vec<Token>>> {
    let mut args: Vec<Vec<Token>> = vec![Vec::new()];
    let mut depth = 0usize;
    loop {
        let Some(pt) = input.pop() else {
            return Err(CError::pp("unterminated macro argument list", loc));
        };
        match pt.tok.kind {
            TokenKind::Punct(Punct::LParen | Punct::LBracket | Punct::LBrace) => depth += 1,
            TokenKind::Punct(Punct::RParen) if depth == 0 => return Ok(args),
            TokenKind::Punct(Punct::RParen | Punct::RBracket | Punct::RBrace) => {
                depth = depth.saturating_sub(1);
            }
            TokenKind::Punct(Punct::Comma) if depth == 0 => {
                args.push(Vec::new());
                continue;
            }
            _ => {}
        }
        args.last_mut()
            .expect("starts with one argument")
            .push(pt.tok);
    }
}

/// The source spelling of a token (used for `#` and `##`).
pub fn spell(t: &Token, interner: &Interner) -> String {
    t.kind.display(interner).to_string()
}

/// Renders argument tokens as a string literal body (for `#param`).
fn stringify(tokens: &[Token], interner: &Interner) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for (i, t) in tokens.iter().enumerate() {
        if i > 0 && t.space_before {
            s.push(' ');
        }
        let _ = write!(s, "{}", t.kind.display(interner));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::FileId;

    /// A macro table under construction plus the interner its symbols and
    /// bodies live in.
    struct Defs {
        interner: Interner,
        macros: MacroTable,
    }

    impl Defs {
        fn new() -> Self {
            Defs {
                interner: Interner::new(),
                macros: MacroTable::new(),
            }
        }

        fn toks(&mut self, src: &str) -> Vec<Token> {
            lexer::lex_into(src, FileId(0), &mut self.interner).unwrap()
        }

        fn obj(mut self, name: &str, body: &str) -> Self {
            let body = self.toks(body);
            let name = self.interner.intern(name);
            self.macros.insert(name, MacroDef::Object { body });
            self
        }

        fn func(self, name: &str, params: &[&str], body: &str) -> Self {
            self.func_with(name, params, false, body)
        }

        fn func_with(mut self, name: &str, params: &[&str], variadic: bool, body: &str) -> Self {
            let def = MacroDef::Function {
                params: params.iter().map(|p| self.interner.intern(p)).collect(),
                variadic,
                body: self.toks(body),
            };
            let name = self.interner.intern(name);
            self.macros.insert(name, def);
            self
        }

        fn expand(&mut self, src: &str) -> Result<String> {
            let tokens = self.toks(src);
            let mut out = Vec::new();
            Expander {
                macros: &self.macros,
                interner: &mut self.interner,
                stats: &mut ExpandStats::default(),
                hides: &mut Vec::new(),
            }
            .expand(&tokens, &mut out)?;
            let spelled: Vec<String> = out.iter().map(|t| spell(t, &self.interner)).collect();
            Ok(spelled.join(" "))
        }

        fn run(mut self, src: &str) -> String {
            self.expand(src).unwrap()
        }
    }

    #[test]
    fn macro_table_tracks_the_defined_bit() {
        let mut d = Defs::new().obj("A", "1");
        let a = d.interner.intern("A");
        let far = (0..300)
            .map(|n| d.interner.intern(&format!("n{n}")))
            .last()
            .unwrap();
        assert!(d.macros.contains(a) && d.macros.get(a).is_some());
        assert!(!d.macros.contains(far) && d.macros.get(far).is_none());
        d.macros.remove(far); // never defined: a no-op
        d.macros.insert(far, MacroDef::Object { body: Vec::new() });
        assert!(d.macros.contains(far));
        d.macros.remove(a);
        assert!(!d.macros.contains(a) && d.macros.get(a).is_none());
        assert!(d.macros.contains(far));
    }

    #[test]
    fn object_macro() {
        assert_eq!(Defs::new().obj("N", "42").run("x = N ;"), "x = 42 ;");
    }

    #[test]
    fn nested_object_macros() {
        assert_eq!(
            Defs::new().obj("A", "B + B").obj("B", "1").run("A"),
            "1 + 1"
        );
    }

    #[test]
    fn self_reference_terminates() {
        assert_eq!(Defs::new().obj("a", "a").run("a"), "a");
        assert_eq!(Defs::new().obj("x", "y").obj("y", "x").run("x"), "x");
    }

    #[test]
    fn function_macro() {
        assert_eq!(
            Defs::new()
                .func("MAX", &["a", "b"], "((a)>(b)?(a):(b))")
                .run("MAX(1, 2)"),
            "( ( 1 ) > ( 2 ) ? ( 1 ) : ( 2 ) )"
        );
    }

    #[test]
    fn function_macro_name_without_parens() {
        assert_eq!(Defs::new().func("F", &["x"], "x").run("F + 1"), "F + 1");
    }

    #[test]
    fn nested_call_arguments() {
        let mut d = Defs::new().func("ID", &["x"], "x").obj("TWO", "2");
        assert_eq!(d.expand("ID(ID(TWO))").unwrap(), "2");
        assert_eq!(d.expand("ID((1, 2))").unwrap(), "( 1 , 2 )");
    }

    #[test]
    fn stringify() {
        assert_eq!(
            Defs::new().func("S", &["x"], "#x").run("S(a + b)"),
            "\"a + b\""
        );
    }

    #[test]
    fn paste() {
        assert_eq!(
            Defs::new()
                .func("CAT", &["a", "b"], "a ## b")
                .run("CAT(foo, bar)"),
            "foobar"
        );
        assert_eq!(Defs::new().obj("X", "pre ## fix").run("X"), "prefix");
        assert_eq!(
            Defs::new()
                .func("C3", &["x", "y", "z"], "x ## y ## z")
                .run("C3(a, b, c)"),
            "abc"
        );
    }

    #[test]
    fn variadic() {
        assert_eq!(
            Defs::new()
                .func_with("CALL", &["f"], true, "f(__VA_ARGS__)")
                .run("CALL(g, 1, 2)"),
            "g ( 1 , 2 )"
        );
    }

    #[test]
    fn arity_errors() {
        let mut d = Defs::new().func("F", &["a", "b"], "a b");
        assert!(d.expand("F(1)").is_err());
        assert!(d.expand("F(1, 2, 3)").is_err());
        assert!(d.expand("F(1, 2").is_err());
    }

    #[test]
    fn zero_arg_macro() {
        assert_eq!(Defs::new().func("Z", &[], "99").run("Z()"), "99");
    }

    #[test]
    fn bad_paste_is_error() {
        // `;=` is not a single valid token.
        assert!(Defs::new()
            .func("P", &["a"], "a ## =")
            .expand("P(;)")
            .is_err());
    }
}
