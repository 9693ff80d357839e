//! Expression parsing (precedence climbing).

use super::Parser;
use crate::ast::{BinaryOp, Expr, ExprKind, IncDec, UnaryOp};
use crate::error::Result;
use crate::token::{sym, Punct, TokenKind};

/// Binding powers for binary operators (higher binds tighter).
fn bin_op(p: Punct) -> Option<(BinaryOp, u8)> {
    use BinaryOp as B;
    use Punct as P;
    Some(match p {
        P::PipePipe => (B::LogOr, 1),
        P::AmpAmp => (B::LogAnd, 2),
        P::Pipe => (B::BitOr, 3),
        P::Caret => (B::BitXor, 4),
        P::Amp => (B::BitAnd, 5),
        P::EqEq => (B::Eq, 6),
        P::BangEq => (B::Ne, 6),
        P::Lt => (B::Lt, 7),
        P::Gt => (B::Gt, 7),
        P::Le => (B::Le, 7),
        P::Ge => (B::Ge, 7),
        P::Shl => (B::Shl, 8),
        P::Shr => (B::Shr, 8),
        P::Plus => (B::Add, 9),
        P::Minus => (B::Sub, 9),
        P::Star => (B::Mul, 10),
        P::Slash => (B::Div, 10),
        P::Percent => (B::Rem, 10),
        _ => return None,
    })
}

/// Compound-assignment operators.
fn assign_op(p: Punct) -> Option<Option<BinaryOp>> {
    use BinaryOp as B;
    use Punct as P;
    Some(match p {
        P::Eq => None,
        P::PlusEq => Some(B::Add),
        P::MinusEq => Some(B::Sub),
        P::StarEq => Some(B::Mul),
        P::SlashEq => Some(B::Div),
        P::PercentEq => Some(B::Rem),
        P::ShlEq => Some(B::Shl),
        P::ShrEq => Some(B::Shr),
        P::AmpEq => Some(B::BitAnd),
        P::CaretEq => Some(B::BitXor),
        P::PipeEq => Some(B::BitOr),
        _ => return None,
    })
}

impl Parser {
    /// Parses a full expression (including comma).
    pub(crate) fn parse_expr(&mut self) -> Result<Expr> {
        let loc = self.loc();
        let mut e = self.parse_assign_expr()?;
        while self.eat_punct(Punct::Comma) {
            let rhs = self.parse_assign_expr()?;
            e = Expr::new(ExprKind::Comma(Box::new(e), Box::new(rhs)), loc);
        }
        Ok(e)
    }

    /// Parses an assignment-expression (no top-level comma).
    pub(crate) fn parse_assign_expr(&mut self) -> Result<Expr> {
        let loc = self.loc();
        let lhs = self.parse_conditional_expr()?;
        if let TokenKind::Punct(p) = self.peek() {
            if let Some(op) = assign_op(p) {
                self.pos_advance();
                let rhs = self.parse_assign_expr()?;
                return Ok(Expr::new(
                    ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)),
                    loc,
                ));
            }
        }
        Ok(lhs)
    }

    fn pos_advance(&mut self) {
        self.bump();
    }

    /// Parses a conditional-expression (`?:` and below).
    pub(crate) fn parse_conditional_expr(&mut self) -> Result<Expr> {
        let loc = self.loc();
        let cond = self.parse_binary_expr(1)?;
        if self.eat_punct(Punct::Question) {
            let then_e = self.parse_expr()?;
            self.expect_punct(Punct::Colon)?;
            let else_e = self.parse_conditional_expr()?;
            return Ok(Expr::new(
                ExprKind::Cond(Box::new(cond), Box::new(then_e), Box::new(else_e)),
                loc,
            ));
        }
        Ok(cond)
    }

    fn parse_binary_expr(&mut self, min_prec: u8) -> Result<Expr> {
        let loc = self.loc();
        let mut lhs = self.parse_cast_expr()?;
        while let TokenKind::Punct(p) = self.peek() {
            let Some((op, prec)) = bin_op(p) else { break };
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.parse_binary_expr(prec + 1)?;
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), loc);
        }
        Ok(lhs)
    }

    /// Parses a cast-expression: `(type-name) cast-expr` or unary.
    pub(crate) fn parse_cast_expr(&mut self) -> Result<Expr> {
        let guard = self.enter()?;
        let result = self.parse_cast_expr_inner();
        self.leave(guard);
        result
    }

    fn parse_cast_expr_inner(&mut self) -> Result<Expr> {
        if self.at_punct(Punct::LParen) && self.starts_type_name_after_lparen() {
            let loc = self.loc();
            self.expect_punct(Punct::LParen)?;
            let ty = self.parse_type_name()?;
            self.expect_punct(Punct::RParen)?;
            // Compound literal: `(T){ ... }`.
            if self.at_punct(Punct::LBrace) {
                let inits = self.parse_braced_initializer_list()?;
                return Ok(Expr::new(ExprKind::CompoundLit(ty, inits), loc));
            }
            let inner = self.parse_cast_expr()?;
            return Ok(Expr::new(ExprKind::Cast(ty, Box::new(inner)), loc));
        }
        self.parse_unary_expr()
    }

    /// True when a `(` at the cursor opens a type-name (cast / compound
    /// literal) rather than a parenthesized expression.
    pub(crate) fn starts_type_name_after_lparen(&self) -> bool {
        debug_assert!(self.at_punct(Punct::LParen));
        match self.peek_ahead(1) {
            TokenKind::Ident(s) => {
                super::decl::is_type_specifier_kw(s)
                    || (!s.is_keyword() && self.typedef_lookup(s).is_some())
            }
            _ => false,
        }
    }

    fn parse_unary_expr(&mut self) -> Result<Expr> {
        let loc = self.loc();
        macro_rules! unary {
            ($op:expr) => {{
                self.bump();
                let inner = self.parse_cast_expr()?;
                Ok(Expr::new(ExprKind::Unary($op, Box::new(inner)), loc))
            }};
        }
        match self.peek() {
            TokenKind::Punct(Punct::Star) => unary!(UnaryOp::Deref),
            TokenKind::Punct(Punct::Amp) => unary!(UnaryOp::AddrOf),
            TokenKind::Punct(Punct::Minus) => unary!(UnaryOp::Neg),
            TokenKind::Punct(Punct::Plus) => unary!(UnaryOp::Pos),
            TokenKind::Punct(Punct::Bang) => unary!(UnaryOp::LogicalNot),
            TokenKind::Punct(Punct::Tilde) => unary!(UnaryOp::BitNot),
            TokenKind::Punct(Punct::PlusPlus) => {
                self.bump();
                let inner = self.parse_unary_expr()?;
                Ok(Expr::new(
                    ExprKind::Unary(UnaryOp::PreInc, Box::new(inner)),
                    loc,
                ))
            }
            TokenKind::Punct(Punct::MinusMinus) => {
                self.bump();
                let inner = self.parse_unary_expr()?;
                Ok(Expr::new(
                    ExprKind::Unary(UnaryOp::PreDec, Box::new(inner)),
                    loc,
                ))
            }
            TokenKind::Ident(sym::SIZEOF) => {
                self.bump();
                if self.at_punct(Punct::LParen) && self.starts_type_name_after_lparen() {
                    self.expect_punct(Punct::LParen)?;
                    let ty = self.parse_type_name()?;
                    self.expect_punct(Punct::RParen)?;
                    return Ok(Expr::new(ExprKind::SizeofType(ty), loc));
                }
                let inner = self.parse_unary_expr()?;
                Ok(Expr::new(ExprKind::SizeofExpr(Box::new(inner)), loc))
            }
            _ => self.parse_postfix_expr(),
        }
    }

    fn parse_postfix_expr(&mut self) -> Result<Expr> {
        let mut e = self.parse_primary_expr()?;
        loop {
            let loc = self.loc();
            match self.peek() {
                TokenKind::Punct(Punct::LBracket) => {
                    self.bump();
                    let idx = self.parse_expr()?;
                    self.expect_punct(Punct::RBracket)?;
                    e = Expr::new(ExprKind::Index(Box::new(e), Box::new(idx)), loc);
                }
                TokenKind::Punct(Punct::LParen) => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at_punct(Punct::RParen) {
                        loop {
                            args.push(self.parse_assign_expr()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_punct(Punct::RParen)?;
                    e = Expr::new(ExprKind::Call(Box::new(e), args), loc);
                }
                TokenKind::Punct(Punct::Dot) => {
                    self.bump();
                    let (field, _) = self.expect_ident()?;
                    e = Expr::new(
                        ExprKind::Member {
                            base: Box::new(e),
                            field,
                            arrow: false,
                        },
                        loc,
                    );
                }
                TokenKind::Punct(Punct::Arrow) => {
                    self.bump();
                    let (field, _) = self.expect_ident()?;
                    e = Expr::new(
                        ExprKind::Member {
                            base: Box::new(e),
                            field,
                            arrow: true,
                        },
                        loc,
                    );
                }
                TokenKind::Punct(Punct::PlusPlus) => {
                    self.bump();
                    e = Expr::new(ExprKind::PostIncDec(IncDec::Inc, Box::new(e)), loc);
                }
                TokenKind::Punct(Punct::MinusMinus) => {
                    self.bump();
                    e = Expr::new(ExprKind::PostIncDec(IncDec::Dec, Box::new(e)), loc);
                }
                _ => return Ok(e),
            }
        }
    }

    fn parse_primary_expr(&mut self) -> Result<Expr> {
        let loc = self.loc();
        match self.peek() {
            TokenKind::Int(v, _) => {
                self.bump();
                Ok(Expr::new(ExprKind::IntLit(v), loc))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Expr::new(ExprKind::FloatLit(v), loc))
            }
            TokenKind::Char(v) => {
                self.bump();
                Ok(Expr::new(ExprKind::CharLit(v), loc))
            }
            TokenKind::Str(s) => {
                self.bump();
                // Adjacent string literals concatenate.
                let mut sym = s;
                if let TokenKind::Str(_) = self.peek() {
                    let mut full = self.interner.resolve(s).to_string();
                    while let TokenKind::Str(next) = self.peek() {
                        full.push_str(self.interner.resolve(next));
                        self.bump();
                    }
                    sym = self.interner.intern(&full);
                }
                Ok(Expr::new(ExprKind::StrLit(sym), loc))
            }
            TokenKind::Ident(name) if !name.is_keyword() => {
                self.bump();
                Ok(Expr::new(ExprKind::Ident(name), loc))
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            _ => Err(self.err("expected expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::span::FileId;

    fn expr(src: &str) -> Expr {
        let toks = lex(src, FileId(0)).unwrap();
        let mut p = Parser::new(toks);
        let e = p.parse_expr().unwrap();
        assert!(p.at_eof(), "trailing tokens after expression");
        e
    }

    #[test]
    fn precedence() {
        let e = expr("1 + 2 * 3");
        let ExprKind::Binary(BinaryOp::Add, _, rhs) = &e.kind else {
            panic!("{e:?}")
        };
        assert!(matches!(rhs.kind, ExprKind::Binary(BinaryOp::Mul, _, _)));
    }

    #[test]
    fn assignment_right_assoc() {
        let e = expr("a = b = c");
        let ExprKind::Assign(None, _, rhs) = &e.kind else {
            panic!("{e:?}")
        };
        assert!(matches!(rhs.kind, ExprKind::Assign(None, _, _)));
    }

    #[test]
    fn compound_assign() {
        let e = expr("a += b");
        assert!(matches!(
            e.kind,
            ExprKind::Assign(Some(BinaryOp::Add), _, _)
        ));
        let e = expr("a <<= 2");
        assert!(matches!(
            e.kind,
            ExprKind::Assign(Some(BinaryOp::Shl), _, _)
        ));
    }

    #[test]
    fn unary_and_postfix() {
        let e = expr("*p");
        assert!(matches!(e.kind, ExprKind::Unary(UnaryOp::Deref, _)));
        let e = expr("&x");
        assert!(matches!(e.kind, ExprKind::Unary(UnaryOp::AddrOf, _)));
        let e = expr("a[1]");
        assert!(matches!(e.kind, ExprKind::Index(_, _)));
        let e = expr("f(1, 2)");
        let ExprKind::Call(_, args) = &e.kind else {
            panic!()
        };
        assert_eq!(args.len(), 2);
        let e = expr("s.x");
        assert!(matches!(e.kind, ExprKind::Member { arrow: false, .. }));
        let e = expr("p->x");
        assert!(matches!(e.kind, ExprKind::Member { arrow: true, .. }));
        let e = expr("x++");
        assert!(matches!(e.kind, ExprKind::PostIncDec(IncDec::Inc, _)));
        let e = expr("--x");
        assert!(matches!(e.kind, ExprKind::Unary(UnaryOp::PreDec, _)));
    }

    #[test]
    fn deref_chains() {
        let e = expr("**pp");
        let ExprKind::Unary(UnaryOp::Deref, inner) = &e.kind else {
            panic!()
        };
        assert!(matches!(inner.kind, ExprKind::Unary(UnaryOp::Deref, _)));
    }

    #[test]
    fn conditional_and_comma() {
        let e = expr("a ? b : c");
        assert!(matches!(e.kind, ExprKind::Cond(_, _, _)));
        let e = expr("a, b");
        assert!(matches!(e.kind, ExprKind::Comma(_, _)));
    }

    #[test]
    fn string_concat() {
        let toks = lex("\"ab\" \"cd\" + \"ef\"", FileId(0)).unwrap();
        let mut p = Parser::new(toks);
        let e = p.parse_expr().unwrap();
        let ExprKind::Binary(_, l, r) = &e.kind else {
            panic!("{e:?}")
        };
        let (ExprKind::StrLit(l), ExprKind::StrLit(r)) = (&l.kind, &r.kind) else {
            panic!("{e:?}")
        };
        assert_eq!(p.interner.resolve(*l), "abcd");
        assert_eq!(p.interner.resolve(*r), "ef");
    }

    #[test]
    fn sizeof_forms() {
        let e = expr("sizeof(int)");
        assert!(matches!(e.kind, ExprKind::SizeofType(_)));
        let e = expr("sizeof x");
        assert!(matches!(e.kind, ExprKind::SizeofExpr(_)));
        let e = expr("sizeof(x)"); // paren-expr, x is not a type
        assert!(matches!(e.kind, ExprKind::SizeofExpr(_)));
    }

    #[test]
    fn casts() {
        let e = expr("(int)x");
        assert!(matches!(e.kind, ExprKind::Cast(_, _)));
        let e = expr("(int *)0");
        assert!(matches!(e.kind, ExprKind::Cast(_, _)));
        // Parenthesized expression, not a cast.
        let e = expr("(x) + 1");
        assert!(matches!(e.kind, ExprKind::Binary(BinaryOp::Add, _, _)));
    }

    #[test]
    fn call_through_function_pointer() {
        let e = expr("(*fp)(1)");
        let ExprKind::Call(callee, _) = &e.kind else {
            panic!()
        };
        assert!(matches!(callee.kind, ExprKind::Unary(UnaryOp::Deref, _)));
    }

    #[test]
    fn errors() {
        let toks = lex("1 +", FileId(0)).unwrap();
        let mut p = Parser::new(toks);
        assert!(p.parse_expr().is_err());
        let toks = lex("(1", FileId(0)).unwrap();
        let mut p = Parser::new(toks);
        assert!(p.parse_expr().is_err());
    }
}
