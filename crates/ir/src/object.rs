//! Analysis objects: the nodes of the points-to and dependence graphs.
//!
//! An *object* is anything that can hold or receive a value: a variable, a
//! struct field (in the field-based model a field is one object shared by
//! every instance), a function, a standardized parameter/return variable, a
//! compiler temporary, a heap-allocation site, or a string literal.

use crate::loc::SrcLoc;
use std::fmt;

/// Identifier of an object local to one [`CompiledUnit`](crate::CompiledUnit)
/// (or, after linking, to the linked program database).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

impl ObjId {
    /// The index as a usize, for vector addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// What kind of object this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ObjKind {
    /// An ordinary variable (global, static, or local).
    Var = 0,
    /// A struct/union field object `Tag.field` (field-based model).
    Field,
    /// A function. Its "address-of" is what flows into function pointers.
    Func,
    /// Standardized parameter `f$N` of a function or function pointer.
    Param,
    /// Standardized return variable `f$ret`.
    Ret,
    /// Compiler-introduced temporary.
    Temp,
    /// A heap allocation site (`malloc` et al.), one object per static site.
    Heap,
    /// A string literal object (only when the analysis models strings).
    Str,
}

impl ObjKind {
    /// Inverse of `as u8`, for the object-file reader.
    pub fn from_u8(v: u8) -> Option<ObjKind> {
        use ObjKind::*;
        Some(match v {
            0 => Var,
            1 => Field,
            2 => Func,
            3 => Param,
            4 => Ret,
            5 => Temp,
            6 => Heap,
            7 => Str,
            _ => return None,
        })
    }

    /// True for the kinds the paper counts as "program variables" in
    /// Table 2/3 (not temporaries or synthetic sites).
    pub fn is_program_object(self) -> bool {
        matches!(self, ObjKind::Var | ObjKind::Field | ObjKind::Func)
    }
}

/// Metadata of one object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectInfo {
    /// Display name: `x`, `S.x`, `f`, `f$1`, `f$ret`, `tmp$3`, `heap@a.c:12`.
    pub name: String,
    /// When `Some`, the object has external linkage and the linker unifies
    /// it with same-named objects from other units. `None` objects are
    /// file-local (statics, locals, temps, anonymous-struct fields).
    pub link_name: Option<String>,
    pub kind: ObjKind,
    /// Rendered C type, for dependence-chain display (`short`, `int *`).
    pub ty: String,
    pub loc: SrcLoc,
    /// The enclosing function object for locals/params/temps (paper §4:
    /// "information for each local variable that identifies the function in
    /// which it is defined").
    pub in_func: Option<ObjId>,
    /// True when some unit *defines* this symbol (a function with a body, a
    /// file-scope variable that is not `extern`-without-initializer). An
    /// `extern` declaration or implicit function reference leaves it false;
    /// the linker ORs the flag across units, so after linking a global with
    /// `defined == false` is referenced but defined nowhere — the symbols a
    /// partial analysis must treat as potentially living in a quarantined
    /// (or simply absent) unit.
    pub defined: bool,
}

impl ObjectInfo {
    /// A file-local object with no enclosing function.
    pub fn local(
        name: impl Into<String>,
        kind: ObjKind,
        ty: impl Into<String>,
        loc: SrcLoc,
    ) -> Self {
        ObjectInfo {
            name: name.into(),
            link_name: None,
            kind,
            ty: ty.into(),
            loc,
            in_func: None,
            defined: false,
        }
    }

    /// A globally linked object (link name = display name).
    pub fn global(
        name: impl Into<String>,
        kind: ObjKind,
        ty: impl Into<String>,
        loc: SrcLoc,
    ) -> Self {
        let name = name.into();
        ObjectInfo {
            link_name: Some(name.clone()),
            name,
            kind,
            ty: ty.into(),
            loc,
            in_func: None,
            defined: false,
        }
    }

    /// True when the linker should unify this object by name.
    pub fn is_global(&self) -> bool {
        self.link_name.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_roundtrip() {
        for v in 0..=7u8 {
            assert_eq!(ObjKind::from_u8(v).unwrap() as u8, v);
        }
        assert_eq!(ObjKind::from_u8(42), None);
    }

    #[test]
    fn program_object_classification() {
        assert!(ObjKind::Var.is_program_object());
        assert!(ObjKind::Field.is_program_object());
        assert!(ObjKind::Func.is_program_object());
        assert!(!ObjKind::Temp.is_program_object());
        assert!(!ObjKind::Heap.is_program_object());
        assert!(!ObjKind::Param.is_program_object());
    }

    #[test]
    fn constructors() {
        let o = ObjectInfo::global("x", ObjKind::Var, "int", SrcLoc::NONE);
        assert!(o.is_global());
        assert_eq!(o.link_name.as_deref(), Some("x"));
        let t = ObjectInfo::local("tmp$1", ObjKind::Temp, "int *", SrcLoc::NONE);
        assert!(!t.is_global());
        assert_eq!(format!("{}", ObjId(3)), "o3");
        assert_eq!(ObjId(3).index(), 3);
    }
}
