//! Declaration parsing: specifiers, declarators, struct/union/enum
//! definitions, initializers, parameter lists (prototype and K&R), typedefs.

use super::Parser;
use crate::ast::{
    Declaration, Designator, ExternalDecl, FunctionDef, InitDeclarator, Initializer, Storage,
};
use crate::error::{CError, Result};
use crate::span::Loc;
use crate::token::{sym, Punct, Symbol, TokenKind};
use crate::types::{Field, FloatKind, FuncType, IntKind, Param, Type};

/// Type-specifier keywords (not storage classes or qualifiers).
pub(crate) fn is_type_specifier_kw(s: Symbol) -> bool {
    matches!(
        s,
        sym::VOID
            | sym::CHAR
            | sym::SHORT
            | sym::INT
            | sym::LONG
            | sym::FLOAT
            | sym::DOUBLE
            | sym::SIGNED
            | sym::UNSIGNED
            | sym::STRUCT
            | sym::UNION
            | sym::ENUM
            | sym::CONST
            | sym::VOLATILE
            | sym::RESTRICT
            | sym::BOOL
    )
}

/// Accumulated declaration specifiers.
#[derive(Debug, Default)]
struct DeclSpecs {
    storage: Storage,
    is_typedef: bool,
    base: Option<Type>,
    // int-building state
    long_count: u8,
    short: bool,
    signedness: Option<bool>,
    int_seen: bool,
    char_seen: bool,
    float_seen: bool,
    double_seen: bool,
    void_seen: bool,
    bool_seen: bool,
}

impl DeclSpecs {
    fn resolve(self, p: &Parser) -> Result<(Storage, bool, Type)> {
        let ty = if let Some(t) = self.base {
            t
        } else if self.void_seen {
            Type::Void
        } else if self.float_seen {
            Type::Float(FloatKind::Float)
        } else if self.double_seen {
            if self.long_count > 0 {
                Type::Float(FloatKind::LongDouble)
            } else {
                Type::Float(FloatKind::Double)
            }
        } else {
            let signed = self.signedness.unwrap_or(true);
            let kind = if self.char_seen {
                IntKind::Char
            } else if self.short {
                IntKind::Short
            } else if self.long_count >= 2 {
                IntKind::LongLong
            } else if self.long_count == 1 {
                IntKind::Long
            } else if self.int_seen || self.signedness.is_some() || self.bool_seen {
                IntKind::Int
            } else {
                // No type specifier at all: implicit int (K&R).
                IntKind::Int
            };
            Type::Int { kind, signed }
        };
        let _ = p;
        Ok((self.storage, self.is_typedef, ty))
    }
}

impl Parser {
    /// True when the cursor starts declaration specifiers.
    pub(crate) fn starts_decl(&self) -> bool {
        match self.peek() {
            TokenKind::Ident(s) => {
                matches!(
                    s,
                    sym::TYPEDEF
                        | sym::EXTERN
                        | sym::STATIC
                        | sym::AUTO
                        | sym::REGISTER
                        | sym::INLINE
                        | sym::GNU_EXTENSION
                        | sym::GNU_INLINE
                        | sym::GNU_INLINE2
                        | sym::GNU_ATTRIBUTE
                ) || is_type_specifier_kw(s)
                    || (!s.is_keyword() && self.typedef_lookup(s).is_some())
            }
            _ => false,
        }
    }

    /// Parses declaration specifiers: storage class, qualifiers (ignored),
    /// and the base type.
    fn parse_decl_specs(&mut self) -> Result<(Storage, bool, Type)> {
        let mut specs = DeclSpecs::default();
        let mut any = false;
        loop {
            self.skip_gnu_extensions()?;
            let TokenKind::Ident(s) = self.peek() else {
                break;
            };
            match s {
                sym::TYPEDEF => {
                    self.bump();
                    specs.is_typedef = true;
                }
                sym::EXTERN => {
                    self.bump();
                    specs.storage = Storage::Extern;
                }
                sym::STATIC => {
                    self.bump();
                    specs.storage = Storage::Static;
                }
                sym::AUTO => {
                    self.bump();
                    specs.storage = Storage::Auto;
                }
                sym::REGISTER => {
                    self.bump();
                    specs.storage = Storage::Register;
                }
                sym::INLINE | sym::CONST | sym::VOLATILE | sym::RESTRICT => {
                    self.bump();
                }
                sym::VOID => {
                    self.bump();
                    specs.void_seen = true;
                }
                sym::CHAR => {
                    self.bump();
                    specs.char_seen = true;
                }
                sym::SHORT => {
                    self.bump();
                    specs.short = true;
                }
                sym::INT => {
                    self.bump();
                    specs.int_seen = true;
                }
                sym::LONG => {
                    self.bump();
                    specs.long_count += 1;
                }
                sym::FLOAT => {
                    self.bump();
                    specs.float_seen = true;
                }
                sym::DOUBLE => {
                    self.bump();
                    specs.double_seen = true;
                }
                sym::BOOL => {
                    self.bump();
                    specs.bool_seen = true;
                }
                sym::SIGNED => {
                    self.bump();
                    specs.signedness = Some(true);
                }
                sym::UNSIGNED => {
                    self.bump();
                    specs.signedness = Some(false);
                }
                sym::STRUCT | sym::UNION => {
                    let ty = self.parse_record_spec(s == sym::UNION)?;
                    specs.base = Some(ty);
                }
                sym::ENUM => {
                    let ty = self.parse_enum_spec()?;
                    specs.base = Some(ty);
                }
                _ => {
                    // A typedef name can serve as the type specifier, but only
                    // if we have no type specifier yet (storage classes and
                    // qualifiers may precede it).
                    if specs.base.is_none()
                        && !specs.int_seen
                        && !specs.char_seen
                        && !specs.void_seen
                        && !specs.float_seen
                        && !specs.double_seen
                        && !specs.short
                        && specs.long_count == 0
                        && specs.signedness.is_none()
                        && !s.is_keyword()
                    {
                        if let Some(t) = self.typedef_lookup(s) {
                            let t = t.clone();
                            self.bump();
                            specs.base = Some(t);
                            any = true;
                            continue;
                        }
                    }
                    break;
                }
            }
            any = true;
        }
        if !any {
            return Err(self.err("expected declaration specifiers"));
        }
        specs.resolve(self)
    }

    /// Parses `struct tag? { fields }?` / `union ...`.
    fn parse_record_spec(&mut self, is_union: bool) -> Result<Type> {
        let loc = self.loc();
        self.bump(); // struct/union
        self.skip_gnu_extensions()?;
        let id = match self.eat_ident() {
            Some(tag) => self
                .types
                .record_by_tag(self.interner.resolve(tag), is_union, loc),
            None => self.types.anon_record(is_union, loc),
        };
        if self.eat_punct(Punct::LBrace) {
            let mut fields = Vec::new();
            while !self.at_punct(Punct::RBrace) {
                self.parse_field_declaration(&mut fields)?;
            }
            self.expect_punct(Punct::RBrace)?;
            self.skip_gnu_extensions()?;
            let rec = self.types.record_mut(id);
            if rec.complete {
                // C allows the same complete definition in multiple headers
                // only via include guards; a textual redefinition is an error
                // but we accept an identical-arity one leniently.
                if rec.fields.len() != fields.len() {
                    return Err(CError::parse(
                        format!(
                            "redefinition of {} `{}`",
                            if is_union { "union" } else { "struct" },
                            rec.tag
                        ),
                        loc,
                    ));
                }
            } else {
                rec.fields = fields;
                rec.complete = true;
            }
        }
        Ok(Type::Record(id))
    }

    /// Parses one struct-declaration (a field line) into `fields`.
    fn parse_field_declaration(&mut self, fields: &mut Vec<Field>) -> Result<()> {
        let (_, _, base) = self.parse_decl_specs()?;
        // Unnamed field of record type (anonymous struct/union member or a
        // bare `struct S;` line).
        if self.eat_punct(Punct::Semi) {
            return Ok(());
        }
        loop {
            if self.at_punct(Punct::Colon) {
                // Unnamed bit-field.
                self.bump();
                let w = self.parse_conditional_expr()?;
                let _ = self.eval_const(&w);
            } else {
                let (name, ty, loc) = self.parse_named_declarator(base.clone())?;
                if self.eat_punct(Punct::Colon) {
                    let w = self.parse_conditional_expr()?;
                    let _ = self.eval_const(&w);
                }
                fields.push(Field { name, ty, loc });
            }
            self.skip_gnu_extensions()?;
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(())
    }

    /// Parses `enum tag? { enumerators }?`.
    fn parse_enum_spec(&mut self) -> Result<Type> {
        self.bump(); // enum
        self.skip_gnu_extensions()?;
        let tag = match self.eat_ident() {
            Some(s) => self.interner.resolve(s).to_string(),
            None => "<anon-enum>".to_string(),
        };
        if self.eat_punct(Punct::LBrace) {
            let mut next_value: i64 = 0;
            while !self.at_punct(Punct::RBrace) {
                let (name, _) = self.expect_ident()?;
                if self.eat_punct(Punct::Eq) {
                    let e = self.parse_conditional_expr()?;
                    if let Some(v) = self.eval_const(&e) {
                        next_value = v;
                    }
                }
                self.enum_constants.insert(name);
                self.enum_values.insert(name, next_value);
                next_value = next_value.wrapping_add(1);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RBrace)?;
        }
        Ok(Type::Enum(tag))
    }

    // ----- declarators ---------------------------------------------------

    /// Parses a declarator that must have a name.
    pub(crate) fn parse_named_declarator(&mut self, base: Type) -> Result<(Symbol, Type, Loc)> {
        let loc = self.loc();
        let (name, ty) = self.parse_declarator(base, false)?;
        match name {
            Some(n) => Ok((n, ty, loc)),
            None => Err(CError::parse("expected declarator name", loc)),
        }
    }

    /// Parses a (possibly abstract) declarator applied to `base`.
    pub(crate) fn parse_declarator(
        &mut self,
        base: Type,
        allow_abstract: bool,
    ) -> Result<(Option<Symbol>, Type)> {
        let guard = self.enter()?;
        let result = self.parse_declarator_inner(base, allow_abstract);
        self.leave(guard);
        result
    }

    fn parse_declarator_inner(
        &mut self,
        base: Type,
        allow_abstract: bool,
    ) -> Result<(Option<Symbol>, Type)> {
        self.skip_gnu_extensions()?;
        // Pointer prefix.
        if self.eat_punct(Punct::Star) {
            // Qualifiers after `*`.
            while self.eat_kw(sym::CONST)
                || self.eat_kw(sym::VOLATILE)
                || self.eat_kw(sym::RESTRICT)
            {}
            self.skip_gnu_extensions()?;
            return self.parse_declarator(Type::Pointer(Box::new(base)), allow_abstract);
        }
        self.parse_direct_declarator(base, allow_abstract)
    }

    fn parse_direct_declarator(
        &mut self,
        base: Type,
        allow_abstract: bool,
    ) -> Result<(Option<Symbol>, Type)> {
        // Head: identifier, parenthesized declarator, or nothing (abstract).
        enum Head {
            Name(Symbol),
            /// Token range of a parenthesized inner declarator, replayed
            /// after suffixes are known.
            Paren(usize, usize),
            Abstract,
        }
        let head = match self.peek() {
            TokenKind::Ident(s) if !s.is_keyword() => {
                self.bump();
                Head::Name(s)
            }
            TokenKind::Punct(Punct::LParen) if self.paren_is_declarator(allow_abstract) => {
                // Record the inner token range, skip it, parse suffixes, then
                // re-parse the inner declarator with the suffix-wrapped type.
                let start = self.save_pos();
                self.bump(); // (
                let inner_start = self.save_pos();
                let mut depth = 1usize;
                while depth > 0 {
                    match self.bump() {
                        TokenKind::Punct(Punct::LParen) => depth += 1,
                        TokenKind::Punct(Punct::RParen) => depth -= 1,
                        TokenKind::Eof => {
                            return Err(self.err("unterminated declarator parentheses"))
                        }
                        _ => {}
                    }
                }
                let inner_end = self.save_pos() - 1; // before the closing )
                let _ = start;
                Head::Paren(inner_start, inner_end)
            }
            _ if allow_abstract => Head::Abstract,
            _ => return Err(self.err("expected declarator")),
        };

        // Suffixes: arrays and parameter lists, applied right-to-left.
        #[derive(Debug)]
        enum Suffix {
            Array(Option<u64>),
            Func(Vec<Param>, bool, bool),
        }
        let mut suffixes = Vec::new();
        loop {
            if self.at_punct(Punct::LBracket) {
                self.bump();
                let size = if self.at_punct(Punct::RBracket) {
                    None
                } else {
                    let e = self.parse_assign_expr()?;
                    self.eval_const(&e).map(|v| v.max(0) as u64)
                };
                self.expect_punct(Punct::RBracket)?;
                suffixes.push(Suffix::Array(size));
            } else if self.at_punct(Punct::LParen) {
                self.bump();
                let (params, variadic, kr) = self.parse_parameter_list()?;
                suffixes.push(Suffix::Func(params, variadic, kr));
            } else {
                break;
            }
        }
        self.skip_gnu_extensions()?;

        let mut ty = base;
        for s in suffixes.into_iter().rev() {
            ty = match s {
                Suffix::Array(n) => Type::Array(Box::new(ty), n),
                Suffix::Func(params, variadic, kr) => Type::Function(Box::new(FuncType {
                    ret: ty,
                    params,
                    variadic,
                    kr,
                })),
            };
        }

        match head {
            Head::Name(n) => Ok((Some(n), ty)),
            Head::Abstract => Ok((None, ty)),
            Head::Paren(inner_start, inner_end) => {
                // Replay the inner declarator tokens against the wrapped type.
                let resume = self.save_pos();
                self.restore_pos(inner_start);
                let result = self.parse_declarator(ty, allow_abstract)?;
                if self.save_pos() != inner_end {
                    return Err(self.err("malformed parenthesized declarator"));
                }
                self.restore_pos(resume);
                Ok(result)
            }
        }
    }

    pub(crate) fn save_pos(&self) -> usize {
        self.pos_raw()
    }

    /// Decides whether `(` at the cursor opens a nested declarator (true) or
    /// a parameter list attached to an omitted name (false). A parameter list
    /// starts with a type or `)`; a nested declarator starts with `*`, an
    /// ordinary identifier, or another `(`.
    fn paren_is_declarator(&self, allow_abstract: bool) -> bool {
        match self.peek_ahead(1) {
            TokenKind::Punct(Punct::Star) => true,
            TokenKind::Punct(Punct::LParen) => true,
            TokenKind::Punct(Punct::RParen) => false, // `()` parameter list
            TokenKind::Ident(s) => {
                if is_type_specifier_kw(s)
                    || matches!(
                        s,
                        sym::TYPEDEF | sym::EXTERN | sym::STATIC | sym::AUTO | sym::REGISTER
                    )
                {
                    false
                } else if !s.is_keyword() && self.typedef_lookup(s).is_some() {
                    // A typedef name here is a parameter type... unless we
                    // need a concrete name (non-abstract context), where a
                    // shadowing declarator name is the only parse.
                    allow_abstract
                } else {
                    !s.is_keyword()
                }
            }
            _ => false,
        }
    }

    /// Parses a parameter list after `(`. Returns `(params, variadic, kr)`.
    fn parse_parameter_list(&mut self) -> Result<(Vec<Param>, bool, bool)> {
        // Empty: `()` — unspecified parameters (K&R).
        if self.eat_punct(Punct::RParen) {
            return Ok((Vec::new(), false, true));
        }
        // K&R identifier list: `f(a, b, c)` — names only, no types.
        if let TokenKind::Ident(s) = self.peek() {
            if !s.is_keyword()
                && self.typedef_lookup(s).is_none()
                && matches!(
                    self.peek_ahead(1),
                    TokenKind::Punct(Punct::Comma) | TokenKind::Punct(Punct::RParen)
                )
            {
                let mut params = Vec::new();
                loop {
                    let (name, loc) = self.expect_ident()?;
                    params.push(Param {
                        name: Some(name),
                        ty: Type::int(),
                        loc,
                    });
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::RParen)?;
                return Ok((params, false, true));
            }
        }
        // Prototype.
        let mut params = Vec::new();
        let mut variadic = false;
        loop {
            if self.eat_punct(Punct::Ellipsis) {
                variadic = true;
                break;
            }
            let loc = self.loc();
            let (_, _, base) = self.parse_decl_specs()?;
            let (name, ty) = self.parse_declarator(base, true)?;
            // `(void)` means no parameters.
            if params.is_empty()
                && name.is_none()
                && ty == Type::Void
                && self.at_punct(Punct::RParen)
            {
                break;
            }
            params.push(Param {
                name,
                ty: decay(ty),
                loc,
            });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RParen)?;
        Ok((params, variadic, false))
    }

    /// Parses a type-name (for casts, `sizeof`, compound literals).
    pub(crate) fn parse_type_name(&mut self) -> Result<Type> {
        let (_, _, base) = self.parse_decl_specs()?;
        let (name, ty) = self.parse_declarator(base, true)?;
        if name.is_some() {
            return Err(self.err("unexpected name in type-name"));
        }
        Ok(ty)
    }

    // ----- initializers ---------------------------------------------------

    /// Parses an initializer (expression or braced list). Braced lists
    /// nest, so the recursion is charged against the parser depth budget —
    /// `x = {{{{...` is a typed budget error, not a stack overflow.
    fn parse_initializer(&mut self) -> Result<Initializer> {
        let guard = self.enter()?;
        let result = if self.at_punct(Punct::LBrace) {
            self.parse_braced_initializer_list().map(Initializer::List)
        } else {
            self.parse_assign_expr().map(Initializer::Expr)
        };
        self.leave(guard);
        result
    }

    /// Parses `{ designator? init, ... }` including the braces.
    pub(crate) fn parse_braced_initializer_list(
        &mut self,
    ) -> Result<Vec<(Designator, Initializer)>> {
        self.expect_punct(Punct::LBrace)?;
        let mut items = Vec::new();
        while !self.at_punct(Punct::RBrace) {
            let mut designator = Designator::None;
            // C99 designators `.f =` / `[i] =`; chains collapse to the head.
            loop {
                if self.at_punct(Punct::Dot) {
                    self.bump();
                    let (f, _) = self.expect_ident()?;
                    if matches!(designator, Designator::None) {
                        designator = Designator::Field(f);
                    }
                } else if self.at_punct(Punct::LBracket) {
                    self.bump();
                    let e = self.parse_conditional_expr()?;
                    self.expect_punct(Punct::RBracket)?;
                    if matches!(designator, Designator::None) {
                        designator =
                            Designator::Index(self.eval_const(&e).map(|v| v.max(0) as u64));
                    }
                } else {
                    break;
                }
            }
            if !matches!(designator, Designator::None) {
                self.expect_punct(Punct::Eq)?;
            }
            let init = self.parse_initializer()?;
            items.push((designator, init));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RBrace)?;
        Ok(items)
    }

    // ----- external declarations ------------------------------------------

    /// Parses one external declaration (function definition or declaration).
    /// Returns `None` for stray semicolons and type-only declarations that
    /// produce no AST item... (they still register types/typedefs).
    pub(crate) fn parse_external_decl(&mut self) -> Result<Option<ExternalDecl>> {
        // Stray semicolons are tolerated.
        if self.eat_punct(Punct::Semi) {
            return Ok(None);
        }
        self.skip_gnu_extensions()?;
        let loc = self.loc();
        let (storage, is_typedef, base) = self.parse_decl_specs()?;
        // `struct S { ... };` or `enum E { ... };` alone.
        if self.eat_punct(Punct::Semi) {
            return Ok(None);
        }
        let first_loc = self.loc();
        let (name, ty) = self.parse_declarator(base.clone(), false)?;
        let name = name.ok_or_else(|| CError::parse("expected declarator name", first_loc))?;

        // Function definition: function declarator followed by `{`, or by
        // K&R parameter declarations then `{`.
        if let Type::Function(ft) = &ty {
            if !is_typedef && (self.at_punct(Punct::LBrace) || self.starts_decl()) {
                let mut ft = (**ft).clone();
                // K&R parameter declarations.
                while !self.at_punct(Punct::LBrace) && self.starts_decl() {
                    let (_, _, kbase) = self.parse_decl_specs()?;
                    loop {
                        let (pname, pty, _ploc) = self.parse_named_declarator(kbase.clone())?;
                        if let Some(p) = ft.params.iter_mut().find(|p| p.name == Some(pname)) {
                            p.ty = decay(pty);
                        }
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                    self.expect_punct(Punct::Semi)?;
                }
                if !self.at_punct(Punct::LBrace) {
                    return Err(self.err("expected function body"));
                }
                self.declare_ordinary(name);
                self.push_scope();
                for p in &ft.params {
                    if let Some(n) = p.name {
                        self.declare_ordinary(n);
                    }
                }
                let body = self.parse_block()?;
                self.pop_scope();
                return Ok(Some(ExternalDecl::Function(FunctionDef {
                    name,
                    ty: ft,
                    storage,
                    body,
                    loc,
                })));
            }
        }

        // Ordinary declaration (possibly a typedef), with more declarators.
        let decl = self.finish_declaration(storage, is_typedef, base, name, ty, first_loc, loc)?;
        Ok(Some(ExternalDecl::Declaration(decl)))
    }

    /// Completes a declaration after its first declarator has been parsed.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish_declaration(
        &mut self,
        storage: Storage,
        is_typedef: bool,
        base: Type,
        first_name: Symbol,
        first_ty: Type,
        first_loc: Loc,
        loc: Loc,
    ) -> Result<Declaration> {
        let mut items = Vec::new();
        let register = |p: &mut Parser, name: Symbol, ty: &Type| {
            if is_typedef {
                p.declare_typedef(name, ty.clone());
            } else {
                p.declare_ordinary(name);
            }
        };
        register(self, first_name, &first_ty);
        let init = if self.eat_punct(Punct::Eq) {
            Some(self.parse_initializer()?)
        } else {
            None
        };
        items.push(InitDeclarator {
            name: first_name,
            ty: first_ty,
            init,
            loc: first_loc,
        });
        while self.eat_punct(Punct::Comma) {
            let (name, ty, dloc) = self.parse_named_declarator(base.clone())?;
            register(self, name, &ty);
            let init = if self.eat_punct(Punct::Eq) {
                Some(self.parse_initializer()?)
            } else {
                None
            };
            items.push(InitDeclarator {
                name,
                ty,
                init,
                loc: dloc,
            });
        }
        self.expect_punct(Punct::Semi)?;
        Ok(Declaration {
            storage,
            is_typedef,
            items,
            loc,
        })
    }

    /// Parses a declaration inside a block (specifiers already known to
    /// start one).
    pub(crate) fn parse_block_declaration(&mut self) -> Result<Declaration> {
        let loc = self.loc();
        let (storage, is_typedef, base) = self.parse_decl_specs()?;
        if self.eat_punct(Punct::Semi) {
            return Ok(Declaration {
                storage,
                is_typedef,
                items: Vec::new(),
                loc,
            });
        }
        let first_loc = self.loc();
        let (name, ty, _) = self.parse_named_declarator(base.clone())?;
        self.finish_declaration(storage, is_typedef, base, name, ty, first_loc, loc)
    }
}

/// Parameter types decay: arrays to pointers, functions to function pointers.
pub(crate) fn decay(ty: Type) -> Type {
    match ty {
        Type::Array(elem, _) => Type::Pointer(elem),
        f @ Type::Function(_) => Type::Pointer(Box::new(f)),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::{ExternalDecl, Initializer};
    use crate::lexer::lex;
    use crate::span::FileId;
    use crate::types::{FloatKind, IntKind, Type};

    fn parse_ok(src: &str) -> crate::ast::TranslationUnit {
        let toks = lex(src, FileId(0)).unwrap();
        super::super::parse(toks, "t.c").unwrap()
    }

    fn first_var(tu: &crate::ast::TranslationUnit) -> (&str, &Type) {
        for item in &tu.items {
            if let ExternalDecl::Declaration(d) = item {
                let i = &d.items[0];
                return (tu.name(i.name), &i.ty);
            }
        }
        panic!("no declaration");
    }

    #[test]
    fn simple_decls() {
        let tu = parse_ok("int x;");
        let (n, t) = first_var(&tu);
        assert_eq!(n, "x");
        assert_eq!(*t, Type::int());

        let tu = parse_ok("unsigned long y;");
        let (_, t) = first_var(&tu);
        assert_eq!(
            *t,
            Type::Int {
                kind: IntKind::Long,
                signed: false
            }
        );

        let tu = parse_ok("long long z;");
        let (_, t) = first_var(&tu);
        assert_eq!(
            *t,
            Type::Int {
                kind: IntKind::LongLong,
                signed: true
            }
        );

        let tu = parse_ok("long double d;");
        let (_, t) = first_var(&tu);
        assert_eq!(*t, Type::Float(FloatKind::LongDouble));
    }

    #[test]
    fn pointers_and_arrays() {
        let tu = parse_ok("int *p;");
        assert_eq!(*first_var(&tu).1, Type::int().ptr_to());
        let tu = parse_ok("int **pp;");
        assert_eq!(*first_var(&tu).1, Type::int().ptr_to().ptr_to());
        let tu = parse_ok("int a[10];");
        assert_eq!(
            *first_var(&tu).1,
            Type::Array(Box::new(Type::int()), Some(10))
        );
        let tu = parse_ok("int m[2][3];");
        assert_eq!(
            *first_var(&tu).1,
            Type::Array(
                Box::new(Type::Array(Box::new(Type::int()), Some(3))),
                Some(2)
            )
        );
        let tu = parse_ok("int *ap[4];");
        assert_eq!(
            *first_var(&tu).1,
            Type::Array(Box::new(Type::int().ptr_to()), Some(4))
        );
        let tu = parse_ok("int (*pa)[4];");
        assert_eq!(
            *first_var(&tu).1,
            Type::Pointer(Box::new(Type::Array(Box::new(Type::int()), Some(4))))
        );
        let tu = parse_ok("int sz[sizeof(int) * 2];");
        assert_eq!(
            *first_var(&tu).1,
            Type::Array(Box::new(Type::int()), Some(8))
        );
    }

    #[test]
    fn function_declarators() {
        let tu = parse_ok("int f(int a, char *b);");
        let (n, t) = first_var(&tu);
        assert_eq!(n, "f");
        let Type::Function(ft) = t else {
            panic!("{t:?}")
        };
        assert_eq!(ft.ret, Type::int());
        assert_eq!(ft.params.len(), 2);
        assert_eq!(ft.params[1].ty, Type::char_().ptr_to());
        assert!(!ft.variadic);

        let tu = parse_ok("int g(void);");
        let Type::Function(ft) = first_var(&tu).1 else {
            panic!()
        };
        assert!(ft.params.is_empty());
        assert!(!ft.kr);

        let tu = parse_ok("int h();");
        let Type::Function(ft) = first_var(&tu).1 else {
            panic!()
        };
        assert!(ft.kr);

        let tu = parse_ok("int v(char *fmt, ...);");
        let Type::Function(ft) = first_var(&tu).1 else {
            panic!()
        };
        assert!(ft.variadic);
    }

    #[test]
    fn function_pointers() {
        let tu = parse_ok("int (*fp)(int);");
        let Type::Pointer(inner) = first_var(&tu).1 else {
            panic!()
        };
        assert!(matches!(**inner, Type::Function(_)));

        let tu = parse_ok("void (*table[8])(void);");
        let Type::Array(elem, Some(8)) = first_var(&tu).1 else {
            panic!()
        };
        assert!(matches!(**elem, Type::Pointer(_)));

        // Function returning a function pointer.
        let tu = parse_ok("int (*get(void))(char);");
        let Type::Function(ft) = first_var(&tu).1 else {
            panic!()
        };
        assert!(matches!(ft.ret, Type::Pointer(_)));
    }

    #[test]
    fn array_params_decay() {
        let tu = parse_ok("void f(int a[10], int g(void));");
        let Type::Function(ft) = first_var(&tu).1 else {
            panic!()
        };
        assert_eq!(ft.params[0].ty, Type::int().ptr_to());
        assert!(matches!(ft.params[1].ty, Type::Pointer(_)));
    }

    #[test]
    fn structs() {
        let tu = parse_ok("struct S { short x; short y; } s, *ps;");
        let rec = tu.types.iter().next().unwrap().1;
        assert_eq!(rec.tag, "S");
        assert_eq!(rec.fields.len(), 2);
        assert!(rec.complete);
        let ExternalDecl::Declaration(d) = &tu.items[0] else {
            panic!()
        };
        assert_eq!(d.items.len(), 2);
        assert!(matches!(d.items[1].ty, Type::Pointer(_)));
    }

    #[test]
    fn forward_and_self_referential_struct() {
        let tu = parse_ok("struct N { struct N *next; int v; }; struct N head;");
        let rec = tu.types.iter().next().unwrap().1;
        assert_eq!(rec.fields.len(), 2);
        assert!(matches!(rec.fields[0].ty, Type::Pointer(_)));
    }

    #[test]
    fn unions_and_bitfields() {
        let tu = parse_ok("union U { int i; float f; } u;");
        let rec = tu.types.iter().next().unwrap().1;
        assert!(rec.is_union);
        let tu = parse_ok("struct B { int flags : 3; int : 2; int rest; } b;");
        let rec = tu.types.iter().next().unwrap().1;
        assert_eq!(rec.fields.len(), 2);
    }

    #[test]
    fn enums() {
        let mut tu = parse_ok("enum Color { RED, GREEN = 5, BLUE } c;");
        for name in ["RED", "BLUE"] {
            let sym = tu.interner.intern(name);
            assert!(tu.enum_constants.contains(sym), "{name}");
        }
        let c = tu.interner.intern("c");
        assert!(!tu.enum_constants.contains(c));
        let (_, t) = first_var(&tu);
        assert_eq!(*t, Type::Enum("Color".into()));
    }

    #[test]
    fn typedefs() {
        let tu = parse_ok("typedef int myint; myint x;");
        // The second declaration should resolve myint to int.
        let mut vars = Vec::new();
        for item in &tu.items {
            if let ExternalDecl::Declaration(d) = item {
                if !d.is_typedef {
                    for i in &d.items {
                        vars.push((tu.name(i.name).to_string(), i.ty.clone()));
                    }
                }
            }
        }
        assert_eq!(vars, vec![("x".to_string(), Type::int())]);

        let tu = parse_ok("typedef struct S { int v; } S_t; S_t *p;");
        let mut found = false;
        for item in &tu.items {
            if let ExternalDecl::Declaration(d) = item {
                if !d.is_typedef {
                    assert!(matches!(d.items[0].ty, Type::Pointer(_)));
                    found = true;
                }
            }
        }
        assert!(found);
    }

    #[test]
    fn typedef_function_pointer() {
        let tu = parse_ok("typedef void (*handler)(int); handler h;");
        let mut checked = false;
        for item in &tu.items {
            if let ExternalDecl::Declaration(d) = item {
                if !d.is_typedef {
                    let Type::Pointer(inner) = &d.items[0].ty else {
                        panic!()
                    };
                    assert!(matches!(**inner, Type::Function(_)));
                    checked = true;
                }
            }
        }
        assert!(checked);
    }

    #[test]
    fn initializers() {
        let tu = parse_ok("int x = 1;");
        let ExternalDecl::Declaration(d) = &tu.items[0] else {
            panic!()
        };
        assert!(matches!(d.items[0].init, Some(Initializer::Expr(_))));
        let tu = parse_ok("int a[3] = {1, 2, 3};");
        let ExternalDecl::Declaration(d) = &tu.items[0] else {
            panic!()
        };
        let Some(Initializer::List(l)) = &d.items[0].init else {
            panic!()
        };
        assert_eq!(l.len(), 3);
        let tu = parse_ok("struct P { int x; int y; } p = { .y = 2, .x = 1 };");
        let ExternalDecl::Declaration(d) = &tu.items[0] else {
            panic!()
        };
        let Some(Initializer::List(l)) = &d.items[0].init else {
            panic!()
        };
        assert_eq!(l.len(), 2);
        assert!(matches!(l[0].0, crate::ast::Designator::Field(f) if tu.name(f) == "y"));
    }

    #[test]
    fn function_definition() {
        let tu = parse_ok("int add(int a, int b) { return a + b; }");
        let ExternalDecl::Function(f) = &tu.items[0] else {
            panic!()
        };
        assert_eq!(tu.name(f.name), "add");
        assert_eq!(f.ty.params.len(), 2);
        assert_eq!(f.body.items.len(), 1);
    }

    #[test]
    fn kr_function_definition() {
        let tu = parse_ok("int f(a, p) int a; char *p; { return a; }");
        let ExternalDecl::Function(f) = &tu.items[0] else {
            panic!()
        };
        assert!(f.ty.kr);
        assert_eq!(f.ty.params[0].ty, Type::int());
        assert_eq!(f.ty.params[1].ty, Type::char_().ptr_to());
    }

    #[test]
    fn storage_classes() {
        let tu = parse_ok("static int s; extern int e;");
        let ExternalDecl::Declaration(d) = &tu.items[0] else {
            panic!()
        };
        assert_eq!(d.storage, crate::ast::Storage::Static);
        let ExternalDecl::Declaration(d) = &tu.items[1] else {
            panic!()
        };
        assert_eq!(d.storage, crate::ast::Storage::Extern);
    }

    #[test]
    fn gnu_extensions_skipped() {
        parse_ok("__extension__ int x;");
        parse_ok("int f(void) __attribute__((noreturn));");
        parse_ok("static __inline int g(void) { return 0; }");
    }

    #[test]
    fn implicit_int() {
        let tu = parse_ok("static x;");
        assert_eq!(*first_var(&tu).1, Type::int());
    }

    #[test]
    fn redefinition_errors() {
        let toks = lex(
            "struct S { int a; }; struct S { int a; int b; };",
            FileId(0),
        )
        .unwrap();
        assert!(super::super::parse(toks, "t.c").is_err());
    }
}
