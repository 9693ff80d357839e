//! `#if` / `#elif` constant-expression evaluation.
//!
//! Evaluates an integer constant expression over macro-expanded tokens.
//! `defined X` / `defined(X)` are resolved *before* macro expansion, as the
//! standard requires; identifiers that survive expansion evaluate to 0.

use crate::error::{CError, Result};
use crate::pp::expand::{Expander, MacroTable};
use crate::span::Loc;
use crate::token::{sym, Punct, Token, TokenKind};

/// Evaluates the controlling expression of `#if`/`#elif`.
///
/// # Errors
///
/// Returns [`CError::Pp`] on syntax errors, division by zero, or an empty
/// expression.
pub(crate) fn eval_condition(
    tokens: &[Token],
    expander: &mut Expander<'_>,
    loc: Loc,
) -> Result<bool> {
    let resolved = resolve_defined(tokens, expander.macros, loc)?;
    let mut expanded = Vec::new();
    expander.expand(&resolved, &mut expanded)?;
    let mut p = CondParser {
        toks: &expanded,
        pos: 0,
        loc,
        depth: 0,
    };
    let v = p.ternary()?;
    if p.pos != p.toks.len() {
        return Err(CError::pp("trailing tokens in #if expression", p.cur_loc()));
    }
    Ok(v != 0)
}

/// Replaces `defined NAME` and `defined(NAME)` with `1`/`0`.
fn resolve_defined(tokens: &[Token], macros: &MacroTable, loc: Loc) -> Result<Vec<Token>> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident(sym::DEFINED) {
            let (name, next) = if tokens.get(i + 1).is_some_and(|t| t.is_punct(Punct::LParen)) {
                let name = tokens
                    .get(i + 2)
                    .and_then(|t| t.kind.ident())
                    .ok_or_else(|| CError::pp("expected identifier after `defined(`", loc))?;
                if !tokens.get(i + 3).is_some_and(|t| t.is_punct(Punct::RParen)) {
                    return Err(CError::pp("expected `)` after `defined(NAME`", loc));
                }
                (name, i + 4)
            } else {
                let name = tokens
                    .get(i + 1)
                    .and_then(|t| t.kind.ident())
                    .ok_or_else(|| CError::pp("expected identifier after `defined`", loc))?;
                (name, i + 2)
            };
            let v = u64::from(macros.contains(name));
            out.push(Token::synth(TokenKind::Int(v, Default::default()), loc));
            i = next;
        } else {
            out.push(tokens[i]);
            i += 1;
        }
    }
    Ok(out)
}

/// Deepest `#if` expression nesting (parens, `?:`, unary chains) before a
/// typed budget error. Hostile `#if ((((...` must not overflow the stack.
const MAX_COND_DEPTH: u32 = 256;

struct CondParser<'a> {
    toks: &'a [Token],
    pos: usize,
    loc: Loc,
    depth: u32,
}

impl<'a> CondParser<'a> {
    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_COND_DEPTH {
            return Err(CError::budget(
                format!("#if expression nested too deeply (limit {MAX_COND_DEPTH})"),
                self.cur_loc(),
            ));
        }
        Ok(())
    }

    fn cur_loc(&self) -> Loc {
        self.toks.get(self.pos).map_or(self.loc, |t| t.loc)
    }

    fn peek(&self) -> Option<TokenKind> {
        self.toks.get(self.pos).map(|t| t.kind)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == Some(TokenKind::Punct(p)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn err(&self, msg: impl Into<String>) -> CError {
        CError::pp(msg, self.cur_loc())
    }

    fn ternary(&mut self) -> Result<i64> {
        self.enter()?;
        let r = self.ternary_inner();
        self.depth -= 1;
        r
    }

    fn ternary_inner(&mut self) -> Result<i64> {
        let c = self.binary(0)?;
        if self.eat_punct(Punct::Question) {
            let t = self.ternary()?;
            if !self.eat_punct(Punct::Colon) {
                return Err(self.err("expected `:` in conditional"));
            }
            let e = self.ternary()?;
            Ok(if c != 0 { t } else { e })
        } else {
            Ok(c)
        }
    }

    /// Precedence climbing over binary operators.
    fn binary(&mut self, min_prec: u8) -> Result<i64> {
        let mut lhs = self.unary()?;
        while let Some(TokenKind::Punct(p)) = self.peek() {
            let Some(prec) = bin_prec(p) else { break };
            if prec < min_prec {
                break;
            }
            let op = p;
            self.pos += 1;
            // Short-circuit operators must not evaluate eagerly in a way that
            // faults (e.g. `defined(X) && 1/X`): evaluate rhs but guard
            // division by zero only when the result is actually used.
            let rhs = self.binary(prec + 1)?;
            lhs = apply_bin(op, lhs, rhs, self.cur_loc())?;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<i64> {
        self.enter()?;
        let r = self.unary_inner();
        self.depth -= 1;
        r
    }

    fn unary_inner(&mut self) -> Result<i64> {
        if self.eat_punct(Punct::Bang) {
            return Ok(i64::from(self.unary()? == 0));
        }
        if self.eat_punct(Punct::Minus) {
            return Ok(self.unary()?.wrapping_neg());
        }
        if self.eat_punct(Punct::Plus) {
            return self.unary();
        }
        if self.eat_punct(Punct::Tilde) {
            return Ok(!self.unary()?);
        }
        if self.eat_punct(Punct::LParen) {
            let v = self.ternary()?;
            if !self.eat_punct(Punct::RParen) {
                return Err(self.err("expected `)`"));
            }
            return Ok(v);
        }
        match self.peek() {
            Some(TokenKind::Int(v, _)) => {
                self.pos += 1;
                Ok(v as i64)
            }
            Some(TokenKind::Char(v)) => {
                self.pos += 1;
                Ok(v)
            }
            // Any identifier remaining after expansion evaluates to 0.
            Some(TokenKind::Ident(_)) => {
                self.pos += 1;
                Ok(0)
            }
            Some(TokenKind::Float(_)) => Err(self.err("floating constant in #if")),
            _ => Err(self.err("expected expression in #if")),
        }
    }
}

fn bin_prec(p: Punct) -> Option<u8> {
    use Punct::*;
    Some(match p {
        PipePipe => 1,
        AmpAmp => 2,
        Pipe => 3,
        Caret => 4,
        Amp => 5,
        EqEq | BangEq => 6,
        Lt | Gt | Le | Ge => 7,
        Shl | Shr => 8,
        Plus | Minus => 9,
        Star | Slash | Percent => 10,
        _ => return None,
    })
}

fn apply_bin(op: Punct, l: i64, r: i64, loc: Loc) -> Result<i64> {
    use Punct::*;
    Ok(match op {
        PipePipe => i64::from(l != 0 || r != 0),
        AmpAmp => i64::from(l != 0 && r != 0),
        Pipe => l | r,
        Caret => l ^ r,
        Amp => l & r,
        EqEq => i64::from(l == r),
        BangEq => i64::from(l != r),
        Lt => i64::from(l < r),
        Gt => i64::from(l > r),
        Le => i64::from(l <= r),
        Ge => i64::from(l >= r),
        Shl => l.wrapping_shl(r as u32 & 63),
        Shr => l.wrapping_shr(r as u32 & 63),
        Plus => l.wrapping_add(r),
        Minus => l.wrapping_sub(r),
        Star => l.wrapping_mul(r),
        Slash => {
            if r == 0 {
                return Err(CError::pp("division by zero in #if", loc));
            }
            l.wrapping_div(r)
        }
        Percent => {
            if r == 0 {
                return Err(CError::pp("modulo by zero in #if", loc));
            }
            l.wrapping_rem(r)
        }
        // Defensive: the precedence climber only dispatches the operators
        // above, but a typed error beats a panic if that ever drifts.
        other => {
            return Err(CError::pp(
                format!("`{}` is not a #if binary operator", other.as_str()),
                loc,
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_into;
    use crate::pp::expand::{ExpandStats, MacroDef};
    use crate::span::FileId;
    use crate::token::Interner;

    fn eval(src: &str, defs: &[(&str, &str)]) -> Result<bool> {
        let mut interner = Interner::new();
        let mut macros = MacroTable::new();
        for (n, b) in defs {
            let body = lex_into(b, FileId(0), &mut interner).unwrap();
            macros.insert(interner.intern(n), MacroDef::Object { body });
        }
        let toks = lex_into(src, FileId(0), &mut interner).unwrap();
        let mut expander = Expander {
            macros: &macros,
            interner: &mut interner,
            stats: &mut ExpandStats::default(),
            hides: &mut Vec::new(),
        };
        eval_condition(&toks, &mut expander, Loc::BUILTIN)
    }

    #[test]
    fn arithmetic() {
        assert!(eval("1 + 2 * 3 == 7", &[]).unwrap());
        assert!(eval("(1 + 2) * 3 == 9", &[]).unwrap());
        assert!(!eval("0", &[]).unwrap());
        assert!(eval("10 % 3 == 1 && 10 / 3 == 3", &[]).unwrap());
        assert!(eval("1 << 4 == 16", &[]).unwrap());
    }

    #[test]
    fn defined_operator() {
        assert!(eval("defined(FOO)", &[("FOO", "1")]).unwrap());
        assert!(eval("defined FOO", &[("FOO", "1")]).unwrap());
        assert!(!eval("defined(BAR)", &[]).unwrap());
        assert!(eval("!defined(BAR)", &[]).unwrap());
    }

    #[test]
    fn macros_in_condition() {
        assert!(eval("VERSION >= 2", &[("VERSION", "3")]).unwrap());
        assert!(!eval("VERSION >= 2", &[("VERSION", "1")]).unwrap());
    }

    #[test]
    fn unknown_idents_are_zero() {
        assert!(!eval("SOME_UNDEFINED_THING", &[]).unwrap());
        assert!(eval("SOME_UNDEFINED_THING == 0", &[]).unwrap());
    }

    #[test]
    fn ternary_and_unary() {
        assert!(eval("1 ? 2 : 0", &[]).unwrap());
        assert!(eval("-1 < 0", &[]).unwrap());
        assert!(eval("~0 == -1", &[]).unwrap());
        assert!(eval("+5 == 5", &[]).unwrap());
        assert!(eval("'A' == 65", &[]).unwrap());
    }

    #[test]
    fn deep_nesting_is_budget_error_not_overflow() {
        let parens = format!("{}1{}", "(".repeat(50_000), ")".repeat(50_000));
        assert!(eval(&parens, &[]).unwrap_err().is_budget());
        let bangs = format!("{}1", "!".repeat(50_000));
        assert!(eval(&bangs, &[]).unwrap_err().is_budget());
        let ternaries = "1?".repeat(50_000) + "1" + &":1".repeat(50_000);
        assert!(eval(&ternaries, &[]).unwrap_err().is_budget());
    }

    #[test]
    fn errors() {
        assert!(eval("1 +", &[]).is_err());
        assert!(eval("1 / 0", &[]).is_err());
        assert!(eval("1 % 0", &[]).is_err());
        assert!(eval("", &[]).is_err());
        assert!(eval("1 2", &[]).is_err());
        assert!(eval("defined()", &[]).is_err());
        assert!(eval("1.5", &[]).is_err());
    }
}
