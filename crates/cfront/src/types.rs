//! C type representation.
//!
//! Types are structural except for records (structs/unions) and enums, which
//! live in a per-translation-unit [`TypeTable`] and are referenced by id.
//! Record *tags* are the cross-translation-unit identity used by field-based
//! analysis: `struct S { short x; }` in two files denotes the same abstract
//! field object `S.x` (paper Section 3).

use crate::span::Loc;
use crate::token::Symbol;
use std::collections::HashMap;
use std::fmt::{self, Write};

/// Integer kinds (C89 plus `long long`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntKind {
    Char,
    Short,
    Int,
    Long,
    LongLong,
}

/// Floating kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FloatKind {
    Float,
    Double,
    LongDouble,
}

/// Identifier of a record (struct or union) in a [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordId(pub u32);

/// A C type.
#[derive(Debug, Clone, PartialEq)]
pub enum Type {
    Void,
    Int {
        kind: IntKind,
        signed: bool,
    },
    Float(FloatKind),
    Pointer(Box<Type>),
    Array(Box<Type>, Option<u64>),
    Function(Box<FuncType>),
    /// Struct or union; look up fields through the [`TypeTable`].
    Record(RecordId),
    /// Enum; behaves as `int`. The tag is kept for display.
    Enum(String),
}

/// A function type.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncType {
    pub ret: Type,
    pub params: Vec<Param>,
    pub variadic: bool,
    /// True for K&R-style definitions/declarations with no prototype.
    pub kr: bool,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    pub name: Option<Symbol>,
    pub ty: Type,
    pub loc: Loc,
}

/// One field of a record.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    pub name: Symbol,
    pub ty: Type,
    pub loc: Loc,
}

/// A struct or union definition (possibly incomplete).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordDef {
    /// The record's tag. Anonymous records get a synthesized unique tag of
    /// the form `<anon#N>`; named tags are the cross-file identity used by
    /// field-based analysis.
    pub tag: String,
    pub is_union: bool,
    pub fields: Vec<Field>,
    /// False until the `{ ... }` body has been seen.
    pub complete: bool,
    pub loc: Loc,
}

/// Per-translation-unit registry of records.
#[derive(Debug, Default, Clone)]
pub struct TypeTable {
    records: Vec<RecordDef>,
    by_tag: HashMap<String, RecordId>,
    anon_count: u32,
}

impl TypeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TypeTable::default()
    }

    /// Looks up or creates the record with the given tag.
    pub fn record_by_tag(&mut self, tag: &str, is_union: bool, loc: Loc) -> RecordId {
        if let Some(&id) = self.by_tag.get(tag) {
            return id;
        }
        let id = RecordId(self.records.len() as u32);
        self.records.push(RecordDef {
            tag: tag.to_string(),
            is_union,
            fields: Vec::new(),
            complete: false,
            loc,
        });
        self.by_tag.insert(tag.to_string(), id);
        id
    }

    /// Creates a fresh anonymous record.
    pub fn anon_record(&mut self, is_union: bool, loc: Loc) -> RecordId {
        self.anon_count += 1;
        let tag = format!("<anon#{}>", self.anon_count);
        let id = RecordId(self.records.len() as u32);
        self.records.push(RecordDef {
            tag,
            is_union,
            fields: Vec::new(),
            complete: false,
            loc,
        });
        id
    }

    /// The definition for a record id.
    ///
    /// # Panics
    ///
    /// Panics when `id` was not produced by this table.
    pub fn record(&self, id: RecordId) -> &RecordDef {
        &self.records[id.0 as usize]
    }

    /// Mutable access to a record definition.
    pub fn record_mut(&mut self, id: RecordId) -> &mut RecordDef {
        &mut self.records[id.0 as usize]
    }

    /// Finds a field by name (searching nested anonymous members is not
    /// supported; anonymous struct/union members are uncommon in C89).
    pub fn field(&self, id: RecordId, name: Symbol) -> Option<&Field> {
        self.record(id).fields.iter().find(|f| f.name == name)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no record is registered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over all records.
    pub fn iter(&self) -> impl Iterator<Item = (RecordId, &RecordDef)> {
        self.records
            .iter()
            .enumerate()
            .map(|(i, r)| (RecordId(i as u32), r))
    }

    /// Appends the C text of `ty` to `out` (`int *`, `struct S [4]`,
    /// `int (char *, long)`).
    pub fn display(&self, ty: &Type, out: &mut String) {
        match ty {
            Type::Void => out.push_str("void"),
            Type::Int { kind, signed } => {
                if !*signed {
                    out.push_str("unsigned ");
                }
                out.push_str(match kind {
                    IntKind::Char => "char",
                    IntKind::Short => "short",
                    IntKind::Int => "int",
                    IntKind::Long => "long",
                    IntKind::LongLong => "long long",
                });
            }
            Type::Float(FloatKind::Float) => out.push_str("float"),
            Type::Float(FloatKind::Double) => out.push_str("double"),
            Type::Float(FloatKind::LongDouble) => out.push_str("long double"),
            Type::Pointer(inner) => {
                self.display(inner, out);
                out.push_str(" *");
            }
            Type::Array(inner, n) => {
                self.display(inner, out);
                match n {
                    Some(n) => write!(out, " [{n}]").expect("writing to a String"),
                    None => out.push_str(" []"),
                }
            }
            Type::Function(f) => self.display_func(f, out),
            Type::Record(id) => {
                let r = self.record(*id);
                out.push_str(if r.is_union { "union " } else { "struct " });
                out.push_str(&r.tag);
            }
            Type::Enum(tag) => {
                out.push_str("enum ");
                out.push_str(tag);
            }
        }
    }

    /// Appends the C text of a function type to `out`: [`Self::display`]
    /// of `Type::Function(f)`, for callers that hold only the signature.
    pub fn display_func(&self, f: &FuncType, out: &mut String) {
        self.display(&f.ret, out);
        out.push_str(" (");
        for (i, p) in f.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            self.display(&p.ty, out);
        }
        out.push(')');
    }

    /// Size of a type in bytes under the reproduction's ILP32 model
    /// (the paper's 2001-era target). Unions take their largest member;
    /// structs get no padding (size is only used for `sizeof` constant
    /// folding, where exact ABI fidelity is unnecessary).
    pub fn size_of(&self, ty: &Type) -> Option<u64> {
        Some(match ty {
            Type::Void => 1,
            Type::Int { kind, .. } => match kind {
                IntKind::Char => 1,
                IntKind::Short => 2,
                IntKind::Int => 4,
                IntKind::Long => 4,
                IntKind::LongLong => 8,
            },
            Type::Float(FloatKind::Float) => 4,
            Type::Float(FloatKind::Double) => 8,
            Type::Float(FloatKind::LongDouble) => 12,
            Type::Pointer(_) => 4,
            Type::Array(inner, Some(n)) => self.size_of(inner)?.checked_mul(*n)?,
            Type::Array(_, None) => return None,
            Type::Function(_) => return None,
            Type::Record(id) => {
                let r = self.record(*id);
                if !r.complete {
                    return None;
                }
                let mut total: u64 = 0;
                for f in &r.fields {
                    let s = self.size_of(&f.ty)?;
                    if r.is_union {
                        total = total.max(s);
                    } else {
                        total = total.checked_add(s)?;
                    }
                }
                total.max(1)
            }
            Type::Enum(_) => 4,
        })
    }
}

impl Type {
    /// `int`.
    pub const INT: Type = Type::Int {
        kind: IntKind::Int,
        signed: true,
    };
    /// `char`.
    pub const CHAR: Type = Type::Int {
        kind: IntKind::Char,
        signed: true,
    };
    /// `double`.
    pub const DOUBLE: Type = Type::Float(FloatKind::Double);

    /// Convenience: `int`.
    pub fn int() -> Type {
        Type::INT
    }

    /// Convenience: `char`.
    pub fn char_() -> Type {
        Type::CHAR
    }

    /// Convenience: pointer to `self`.
    pub fn ptr_to(self) -> Type {
        Type::Pointer(Box::new(self))
    }

    /// True for pointer types.
    pub fn is_pointer(&self) -> bool {
        matches!(self, Type::Pointer(_))
    }

    /// True for types that *hold or decay to* pointers: pointers, arrays and
    /// functions. These are the objects the points-to analysis tracks.
    pub fn is_pointer_like(&self) -> bool {
        matches!(self, Type::Pointer(_) | Type::Array(..) | Type::Function(_))
    }

    /// True for arithmetic (integer/float/enum) types.
    pub fn is_arithmetic(&self) -> bool {
        matches!(self, Type::Int { .. } | Type::Float(_) | Type::Enum(_))
    }

    /// The pointee for pointers, the element for arrays, `None` otherwise.
    pub fn dereferenced(&self) -> Option<&Type> {
        match self {
            Type::Pointer(t) | Type::Array(t, _) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    /// Renders without a table (record ids appear numerically).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Record(id) => write!(f, "record#{}", id.0),
            // Display via an empty table only works for record-free types.
            other => {
                let mut text = String::new();
                TypeTable::new().display(other, &mut text);
                f.write_str(&text)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_records() {
        let mut names = crate::token::Interner::new();
        let (x, y) = (names.intern("x"), names.intern("y"));
        let mut t = TypeTable::new();
        let s = t.record_by_tag("S", false, Loc::BUILTIN);
        let s2 = t.record_by_tag("S", false, Loc::BUILTIN);
        assert_eq!(s, s2);
        let u = t.record_by_tag("U", true, Loc::BUILTIN);
        assert_ne!(s, u);
        let a1 = t.anon_record(false, Loc::BUILTIN);
        let a2 = t.anon_record(false, Loc::BUILTIN);
        assert_ne!(a1, a2);
        assert_eq!(t.len(), 4);
        t.record_mut(s).fields.push(Field {
            name: x,
            ty: Type::int(),
            loc: Loc::BUILTIN,
        });
        t.record_mut(s).complete = true;
        assert!(t.field(s, x).is_some());
        assert!(t.field(s, y).is_none());
    }

    #[test]
    fn sizes() {
        let mut names = crate::token::Interner::new();
        let mut t = TypeTable::new();
        assert_eq!(t.size_of(&Type::int()), Some(4));
        assert_eq!(t.size_of(&Type::char_()), Some(1));
        assert_eq!(t.size_of(&Type::int().ptr_to()), Some(4));
        assert_eq!(
            t.size_of(&Type::Array(Box::new(Type::int()), Some(10))),
            Some(40)
        );
        assert_eq!(t.size_of(&Type::Array(Box::new(Type::int()), None)), None);
        let s = t.record_by_tag("S", false, Loc::BUILTIN);
        t.record_mut(s).fields.push(Field {
            name: names.intern("a"),
            ty: Type::int(),
            loc: Loc::BUILTIN,
        });
        t.record_mut(s).fields.push(Field {
            name: names.intern("b"),
            ty: Type::Int {
                kind: IntKind::Short,
                signed: true,
            },
            loc: Loc::BUILTIN,
        });
        assert_eq!(t.size_of(&Type::Record(s)), None); // incomplete
        t.record_mut(s).complete = true;
        assert_eq!(t.size_of(&Type::Record(s)), Some(6));
        let u = t.record_by_tag("U", true, Loc::BUILTIN);
        t.record_mut(u).fields = t.record(s).fields.clone();
        t.record_mut(u).complete = true;
        assert_eq!(t.size_of(&Type::Record(u)), Some(4));
    }

    #[test]
    fn predicates() {
        assert!(Type::int().ptr_to().is_pointer());
        assert!(!Type::int().is_pointer());
        assert!(Type::Array(Box::new(Type::int()), None).is_pointer_like());
        assert!(Type::int().is_arithmetic());
        assert!(Type::Enum("E".into()).is_arithmetic());
        assert_eq!(Type::int().ptr_to().dereferenced(), Some(&Type::int()));
        assert_eq!(Type::int().dereferenced(), None);
    }

    #[test]
    fn display() {
        let text = |t: &TypeTable, ty: &Type| {
            let mut out = String::new();
            t.display(ty, &mut out);
            out
        };
        let mut t = TypeTable::new();
        let s = t.record_by_tag("S", false, Loc::BUILTIN);
        assert_eq!(text(&t, &Type::Record(s)), "struct S");
        assert_eq!(text(&t, &Type::int().ptr_to()), "int *");
        assert_eq!(
            text(
                &t,
                &Type::Int {
                    kind: IntKind::Char,
                    signed: false
                }
            ),
            "unsigned char"
        );
        let f = Type::Function(Box::new(FuncType {
            ret: Type::Record(s).ptr_to(),
            params: vec![
                Param {
                    name: None,
                    ty: Type::Array(Box::new(Type::char_()), Some(4)),
                    loc: Loc::BUILTIN,
                },
                Param {
                    name: None,
                    ty: Type::Enum("E".into()),
                    loc: Loc::BUILTIN,
                },
            ],
            variadic: false,
            kr: false,
        }));
        assert_eq!(text(&t, &f), "struct S * (char [4], enum E)");
        assert_eq!(
            text(
                &t,
                &Type::Array(Box::new(Type::Float(FloatKind::Double)), None)
            ),
            "double []"
        );
        assert_eq!(format!("{}", Type::int()), "int");
    }
}
