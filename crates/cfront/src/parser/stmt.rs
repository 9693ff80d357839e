//! Statement and block parsing.

use super::Parser;
use crate::ast::{Block, BlockItem, ForInit, Stmt};
use crate::error::Result;
use crate::token::{sym, Punct, TokenKind};

impl Parser {
    /// Parses a `{ ... }` block (the `{` must be at the cursor). Opens a new
    /// name scope.
    pub(crate) fn parse_block(&mut self) -> Result<Block> {
        let loc = self.loc();
        self.expect_punct(Punct::LBrace)?;
        self.push_scope();
        let mut items = Vec::new();
        while !self.at_punct(Punct::RBrace) {
            if self.at_eof() {
                return Err(self.err("unterminated block"));
            }
            if self.starts_decl() && !self.is_label_ahead() {
                items.push(BlockItem::Decl(self.parse_block_declaration()?));
            } else {
                items.push(BlockItem::Stmt(self.parse_stmt()?));
            }
        }
        self.expect_punct(Punct::RBrace)?;
        self.pop_scope();
        Ok(Block { items, loc })
    }

    /// A typedef name followed by `:` is a label, not a declaration.
    fn is_label_ahead(&self) -> bool {
        matches!(self.peek(), TokenKind::Ident(_))
            && matches!(self.peek_ahead(1), TokenKind::Punct(Punct::Colon))
    }

    /// Parses one statement. Statements nest through blocks, `if`/loop
    /// bodies, and labels, so the recursion shares the parser depth budget
    /// with expressions — a `{{{{...` flood is a typed budget error, not a
    /// stack overflow.
    pub(crate) fn parse_stmt(&mut self) -> Result<Stmt> {
        let guard = self.enter()?;
        let result = self.parse_stmt_inner();
        self.leave(guard);
        result
    }

    fn parse_stmt_inner(&mut self) -> Result<Stmt> {
        match self.peek() {
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Ok(Stmt::Expr(None))
            }
            TokenKind::Punct(Punct::LBrace) => Ok(Stmt::Block(self.parse_block()?)),
            TokenKind::Ident(kw) => match kw {
                sym::IF => self.parse_if(),
                sym::WHILE => self.parse_while(),
                sym::DO => self.parse_do_while(),
                sym::FOR => self.parse_for(),
                sym::SWITCH => self.parse_switch(),
                sym::CASE => {
                    self.bump();
                    let value = self.parse_conditional_expr()?;
                    // GNU case ranges: `case 1 ... 5:` — take the low end.
                    if self.eat_punct(Punct::Ellipsis) {
                        let _ = self.parse_conditional_expr()?;
                    }
                    self.expect_punct(Punct::Colon)?;
                    let body = Box::new(self.parse_stmt()?);
                    Ok(Stmt::Case { value, body })
                }
                sym::DEFAULT => {
                    self.bump();
                    self.expect_punct(Punct::Colon)?;
                    let body = Box::new(self.parse_stmt()?);
                    Ok(Stmt::Default { body })
                }
                sym::RETURN => {
                    let loc = self.loc();
                    self.bump();
                    let value = if self.at_punct(Punct::Semi) {
                        None
                    } else {
                        Some(self.parse_expr()?)
                    };
                    self.expect_punct(Punct::Semi)?;
                    Ok(Stmt::Return { value, loc })
                }
                sym::BREAK => {
                    self.bump();
                    self.expect_punct(Punct::Semi)?;
                    Ok(Stmt::Break)
                }
                sym::CONTINUE => {
                    self.bump();
                    self.expect_punct(Punct::Semi)?;
                    Ok(Stmt::Continue)
                }
                sym::GOTO => {
                    self.bump();
                    let (label, _) = self.expect_ident()?;
                    self.expect_punct(Punct::Semi)?;
                    Ok(Stmt::Goto(label))
                }
                _ => {
                    // Label: `name: stmt` (only for non-keyword identifiers).
                    if !kw.is_keyword() && self.is_label_ahead() {
                        let (name, _) = self.expect_ident()?;
                        self.expect_punct(Punct::Colon)?;
                        let body = Box::new(self.parse_stmt()?);
                        return Ok(Stmt::Label { name, body });
                    }
                    self.parse_expr_stmt()
                }
            },
            _ => self.parse_expr_stmt(),
        }
    }

    fn parse_expr_stmt(&mut self) -> Result<Stmt> {
        let e = self.parse_expr()?;
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt::Expr(Some(e)))
    }

    fn parse_paren_expr(&mut self) -> Result<crate::ast::Expr> {
        self.expect_punct(Punct::LParen)?;
        let e = self.parse_expr()?;
        self.expect_punct(Punct::RParen)?;
        Ok(e)
    }

    fn parse_if(&mut self) -> Result<Stmt> {
        self.expect_kw(sym::IF)?;
        let cond = self.parse_paren_expr()?;
        let then_branch = Box::new(self.parse_stmt()?);
        let else_branch = if self.eat_kw(sym::ELSE) {
            Some(Box::new(self.parse_stmt()?))
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    fn parse_while(&mut self) -> Result<Stmt> {
        self.expect_kw(sym::WHILE)?;
        let cond = self.parse_paren_expr()?;
        let body = Box::new(self.parse_stmt()?);
        Ok(Stmt::While { cond, body })
    }

    fn parse_do_while(&mut self) -> Result<Stmt> {
        self.expect_kw(sym::DO)?;
        let body = Box::new(self.parse_stmt()?);
        self.expect_kw(sym::WHILE)?;
        let cond = self.parse_paren_expr()?;
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt::DoWhile { body, cond })
    }

    fn parse_for(&mut self) -> Result<Stmt> {
        self.expect_kw(sym::FOR)?;
        self.expect_punct(Punct::LParen)?;
        self.push_scope(); // C99 for-scope for declarations
        let init = if self.eat_punct(Punct::Semi) {
            None
        } else if self.starts_decl() {
            // parse_block_declaration consumes the `;`.
            Some(ForInit::Decl(self.parse_block_declaration()?))
        } else {
            let e = self.parse_expr()?;
            self.expect_punct(Punct::Semi)?;
            Some(ForInit::Expr(e))
        };
        let cond = if self.at_punct(Punct::Semi) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect_punct(Punct::Semi)?;
        let step = if self.at_punct(Punct::RParen) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect_punct(Punct::RParen)?;
        let body = Box::new(self.parse_stmt()?);
        self.pop_scope();
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
        })
    }

    fn parse_switch(&mut self) -> Result<Stmt> {
        self.expect_kw(sym::SWITCH)?;
        let cond = self.parse_paren_expr()?;
        let body = Box::new(self.parse_stmt()?);
        Ok(Stmt::Switch { cond, body })
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::{BlockItem, ExternalDecl, Stmt};
    use crate::lexer::lex;
    use crate::span::FileId;

    fn body(src: &str) -> Vec<BlockItem> {
        let full = format!("void f(void) {{ {src} }}");
        let toks = lex(&full, FileId(0)).unwrap();
        let tu = super::super::parse(toks, "t.c").unwrap();
        let ExternalDecl::Function(f) = tu.items.into_iter().next().unwrap() else {
            panic!()
        };
        f.body.items
    }

    fn first_stmt(src: &str) -> Stmt {
        for item in body(src) {
            if let BlockItem::Stmt(s) = item {
                return s;
            }
        }
        panic!("no statement")
    }

    #[test]
    fn control_flow() {
        assert!(matches!(first_stmt("if (x) y = 1;"), Stmt::If { .. }));
        assert!(matches!(
            first_stmt("if (x) y = 1; else y = 2;"),
            Stmt::If {
                else_branch: Some(_),
                ..
            }
        ));
        assert!(matches!(first_stmt("while (x) { }"), Stmt::While { .. }));
        assert!(matches!(
            first_stmt("do x = 1; while (x);"),
            Stmt::DoWhile { .. }
        ));
        assert!(matches!(
            first_stmt("for (i = 0; i < 10; i++) ;"),
            Stmt::For { .. }
        ));
        assert!(matches!(first_stmt("for (;;) break;"), Stmt::For { .. }));
        assert!(matches!(
            first_stmt("for (int i = 0; i < 3; ++i) ;"),
            Stmt::For { .. }
        ));
        assert!(matches!(
            first_stmt("switch (x) { case 1: break; default: break; }"),
            Stmt::Switch { .. }
        ));
        assert!(matches!(
            first_stmt("return;"),
            Stmt::Return { value: None, .. }
        ));
        assert!(matches!(
            first_stmt("return 3;"),
            Stmt::Return { value: Some(_), .. }
        ));
        assert!(matches!(first_stmt("goto out;"), Stmt::Goto(_)));
        assert!(matches!(first_stmt("out: x = 1;"), Stmt::Label { .. }));
        assert!(matches!(first_stmt(";"), Stmt::Expr(None)));
    }

    #[test]
    fn local_declarations() {
        let items = body("int a; a = 1;");
        assert!(matches!(items[0], BlockItem::Decl(_)));
        assert!(matches!(items[1], BlockItem::Stmt(_)));
    }

    #[test]
    fn local_typedef_and_shadowing() {
        // `T` is a typedef in the outer scope but a variable in the inner.
        let src = "typedef int T; void f(void) { int T; T = 3; { T x; } }";
        let toks = lex(src, FileId(0)).unwrap();
        // Inner `T x;` must fail to parse T as a type because T is shadowed.
        assert!(super::super::parse(toks, "t.c").is_err());

        let src = "typedef int T; void f(void) { T v; v = 3; }";
        let toks = lex(src, FileId(0)).unwrap();
        assert!(super::super::parse(toks, "t.c").is_ok());
    }

    #[test]
    fn nested_blocks() {
        let items = body("{ { int x; x = 1; } }");
        assert!(matches!(items[0], BlockItem::Stmt(Stmt::Block(_))));
    }

    #[test]
    fn dangling_else_binds_inner() {
        let s = first_stmt("if (a) if (b) x = 1; else x = 2;");
        let Stmt::If {
            then_branch,
            else_branch,
            ..
        } = s
        else {
            panic!()
        };
        assert!(else_branch.is_none());
        assert!(matches!(
            *then_branch,
            Stmt::If {
                else_branch: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn errors() {
        let toks = lex("void f(void) { if x; }", FileId(0)).unwrap();
        assert!(super::super::parse(toks, "t.c").is_err());
        let toks = lex("void f(void) { x = 1 }", FileId(0)).unwrap();
        assert!(super::super::parse(toks, "t.c").is_err());
        let toks = lex("void f(void) { ", FileId(0)).unwrap();
        assert!(super::super::parse(toks, "t.c").is_err());
    }
}
