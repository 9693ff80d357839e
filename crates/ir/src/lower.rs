//! Lowering: C AST → primitive assignments (the compile phase of CLA).
//!
//! Complex expressions are decomposed into the five primitive forms by
//! introducing temporaries (sparingly — the paper notes "considerable
//! implementation effort is required to avoid introducing too many temporary
//! variables"). Structs are handled *field-based* (one object per
//! `Tag.field`, bases ignored) or *field-independent* (one object per
//! variable, fields ignored); arrays are index-independent; functions use
//! standardized parameter/return variables `f$1`, `f$ret`; indirect calls
//! attach a signature to the function-pointer object for analysis-time
//! linking.
//!
//! Names stay [`Symbol`]s and types stay borrowed from the AST until an
//! object is made, so lowering allocates what it emits (object names, link
//! names, type text) and little else.

use crate::assign::{AssignKind, CompiledUnit, FunSig, PrimAssign};
use crate::loc::{FileIdx, SrcLoc};
use crate::object::{ObjId, ObjKind, ObjectInfo};
use crate::strength::{classify_binary, classify_unary, OpKind, Strength};
use cla_cfront::ast::{
    BinaryOp, Block, BlockItem, Declaration, Designator, Expr, ExprKind, ExternalDecl, ForInit,
    FunctionDef, Initializer, Stmt, Storage, TranslationUnit, UnaryOp,
};
use cla_cfront::span::{Loc, SourceMap};
use cla_cfront::token::Symbol;
use cla_cfront::types::{FuncType, RecordId, Type};
use cla_cfront::FileId;
use std::collections::HashMap;
use std::fmt::Write;

/// Struct model (paper Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FieldModel {
    /// One abstract object per `Tag.field`; the base is ignored. This is
    /// Andersen's treatment and the paper's default.
    #[default]
    FieldBased,
    /// The whole struct variable is one unstructured object; the field is
    /// ignored (the model of Shapiro/Horwitz, Fähndrich et al.).
    FieldIndependent,
}

/// Lowering configuration.
#[derive(Debug, Clone)]
pub struct LowerOptions {
    pub field_model: FieldModel,
    /// Model string literals as objects (default false: the paper's default
    /// setup "ignores constant strings").
    pub model_strings: bool,
    /// Functions treated as allocators; each static call site becomes a
    /// fresh heap object (the paper's default setup (a)).
    pub allocator_names: Vec<String>,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions {
            field_model: FieldModel::FieldBased,
            model_strings: false,
            allocator_names: [
                "malloc", "calloc", "realloc", "valloc", "memalign", "strdup",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
        }
    }
}

impl LowerOptions {
    /// Field-independent variant of these options.
    pub fn field_independent(mut self) -> Self {
        self.field_model = FieldModel::FieldIndependent;
        self
    }
}

/// Lowers one parsed translation unit to primitive assignments.
pub fn lower_unit(tu: &TranslationUnit, sources: &SourceMap, opts: &LowerOptions) -> CompiledUnit {
    let mut lw = Lowerer {
        tu,
        sources,
        opts,
        unit: CompiledUnit::new(tu.file.clone()),
        files: vec![None; sources.len()],
        locals: vec![None; tu.interner.len()],
        shadowed: Vec::new(),
        scopes: Vec::new(),
        globals: vec![None; tu.interner.len()],
        fields: HashMap::new(),
        objs: Vec::new(),
        srcs: Vec::new(),
        text: String::new(),
        temp_count: 0,
        cur_func: None,
        str_count: 0,
    };
    for item in &tu.items {
        match item {
            ExternalDecl::Declaration(d) => lw.lower_file_scope_decl(d),
            ExternalDecl::Function(f) => lw.lower_function(f),
        }
    }
    lw.unit
}

/// An lvalue place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// A named object.
    Obj(ObjId),
    /// `*obj`.
    Deref(ObjId),
    /// Not an assignable object (error recovery / unsupported construct).
    None,
}

/// Where a value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RPlace {
    Obj(ObjId),
    Deref(ObjId),
    Addr(ObjId),
}

/// One source contributing to an rvalue, with the strength/op it passed
/// through.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RSrc {
    place: RPlace,
    strength: Strength,
    op: OpKind,
}

impl RSrc {
    fn new(place: RPlace) -> Self {
        RSrc {
            place,
            strength: Strength::Strong,
            op: OpKind::Direct,
        }
    }

    /// Weakens this source through an operation of the given strength,
    /// recording the op if none is recorded yet.
    fn through(mut self, s: Strength, op: OpKind) -> Self {
        self.strength = self.strength.and(s);
        if self.op == OpKind::Direct {
            self.op = op;
        }
        self
    }
}

/// An implicitly declared function: `int ()`.
static IMPLICIT_FN: FuncType = FuncType {
    ret: Type::INT,
    params: Vec::new(),
    variadic: false,
    kr: true,
};

/// A type lowering reads without building it: `ptrs` added levels of
/// pointer over a type the AST holds, a function definition's signature, or
/// a string literal's `char [n]`.
#[derive(Debug, Clone, Copy)]
struct Ty<'a> {
    base: TyBase<'a>,
    ptrs: u32,
}

#[derive(Debug, Clone, Copy)]
enum TyBase<'a> {
    Type(&'a Type),
    Func(&'a FuncType),
    Str(u64),
}

impl<'a> Ty<'a> {
    fn new(base: TyBase<'a>) -> Self {
        Ty { base, ptrs: 0 }
    }

    fn of(t: &'a Type) -> Self {
        Ty::new(TyBase::Type(t))
    }

    /// `int`: implicit declarations, and whatever lowering cannot type.
    fn int() -> Self {
        Ty::of(&Type::INT)
    }

    fn ptr_to(self) -> Self {
        let ptrs = self.ptrs + 1;
        Ty { ptrs, ..self }
    }

    /// The pointee for pointers, the element for arrays, `None` otherwise.
    fn deref(self) -> Option<Self> {
        if let Some(ptrs) = self.ptrs.checked_sub(1) {
            return Some(Ty { ptrs, ..self });
        }
        match self.base {
            TyBase::Type(t) => t.dereferenced().map(Ty::of),
            TyBase::Func(_) => None,
            TyBase::Str(_) => Some(Ty::of(&Type::CHAR)),
        }
    }

    fn is_array(self) -> bool {
        self.ptrs == 0 && matches!(self.base, TyBase::Type(Type::Array(..)) | TyBase::Str(_))
    }

    fn is_pointer_like(self) -> bool {
        self.ptrs > 0 || !matches!(self.base, TyBase::Type(t) if !t.is_pointer_like())
    }

    fn is_func(self) -> bool {
        self.ptrs == 0 && matches!(self.base, TyBase::Func(_) | TyBase::Type(Type::Function(_)))
    }

    fn record(self) -> Option<RecordId> {
        match self.base {
            TyBase::Type(&Type::Record(id)) if self.ptrs == 0 => Some(id),
            _ => None,
        }
    }

    /// The return type of the function type under this type's pointers,
    /// with how many pointers sit over it; `None` when no function is there.
    fn under_fn(self) -> Option<(u32, &'a Type)> {
        let (mut depth, mut t) = match self.base {
            TyBase::Type(t) => (self.ptrs, t),
            TyBase::Func(f) => return Some((self.ptrs, &f.ret)),
            TyBase::Str(_) => return None,
        };
        while let Type::Pointer(inner) = t {
            depth += 1;
            t = inner;
        }
        let Type::Function(f) = t else { return None };
        Some((depth, &f.ret))
    }
}

/// What lowering keeps of each object it made, by [`ObjId`].
#[derive(Debug, Clone, Copy)]
struct ObjMeta<'a> {
    /// `None` for parameter, return, heap and string objects.
    ty: Option<Ty<'a>>,
    /// Index of the object's signature in `unit.funsigs`.
    sig: Option<usize>,
}

/// An object linked by name (`linked`) or file-local.
fn object_info(name: String, kind: ObjKind, ty: &str, loc: SrcLoc, linked: bool) -> ObjectInfo {
    if linked {
        ObjectInfo::global(name, kind, ty, loc)
    } else {
        ObjectInfo::local(name, kind, ty, loc)
    }
}

struct Lowerer<'a> {
    tu: &'a TranslationUnit,
    sources: &'a SourceMap,
    opts: &'a LowerOptions,
    unit: CompiledUnit,
    /// `FileId` → index in `unit.files`, filled at a file's first location.
    files: Vec<Option<FileIdx>>,
    /// Innermost local declaration of each symbol, by [`Symbol::index`].
    locals: Vec<Option<ObjId>>,
    /// Each local declaration's symbol and the binding it shadowed, newest
    /// last; closing a scope pops back to the scope's mark.
    shadowed: Vec<(Symbol, Option<ObjId>)>,
    /// `shadowed.len()` at each open scope.
    scopes: Vec<usize>,
    /// File-scope object of each symbol (variables and functions, any
    /// linkage), by [`Symbol::index`].
    globals: Vec<Option<ObjId>>,
    /// Field objects by record and field name; `None` is the `?` pool of
    /// members whose base has an unknown type.
    fields: HashMap<(Option<RecordId>, Symbol), ObjId>,
    objs: Vec<ObjMeta<'a>>,
    /// The sources of the rvalues being lowered, innermost last: see
    /// [`Lowerer::lower_rvalue`].
    srcs: Vec<RSrc>,
    /// Type text of the object being made.
    text: String,
    temp_count: u32,
    cur_func: Option<ObjId>,
    str_count: u32,
}

impl<'a> Lowerer<'a> {
    // ----- locations ------------------------------------------------------

    fn srcloc(&mut self, loc: Loc) -> SrcLoc {
        if loc.file == FileId::BUILTIN {
            return SrcLoc::NONE;
        }
        let i = loc.file.0 as usize;
        // An id past the source map has no slot: it is looked up every time.
        let slot = self.files.get(i).copied();
        let file = match slot.flatten() {
            Some(file) => file,
            None => self.unit.files.intern(self.sources.file_name(loc.file)),
        };
        if slot.is_some() {
            self.files[i] = Some(file);
        }
        SrcLoc::new(file, loc.line)
    }

    // ----- object creation -------------------------------------------------

    /// Writes `ty`'s C text into the reused buffer.
    fn ty_text(&mut self, ty: Ty<'a>) -> &str {
        self.text.clear();
        let types = &self.tu.types;
        match ty.base {
            TyBase::Type(t) => types.display(t, &mut self.text),
            TyBase::Func(f) => types.display_func(f, &mut self.text),
            TyBase::Str(n) => write!(self.text, "char [{n}]").expect("writing to a String"),
        }
        for _ in 0..ty.ptrs {
            self.text.push_str(" *");
        }
        &self.text
    }

    fn push(&mut self, info: ObjectInfo, ty: Option<Ty<'a>>) -> ObjId {
        self.objs.push(ObjMeta { ty, sig: None });
        self.unit.push_object(info)
    }

    fn new_temp(&mut self, ty: Ty<'a>, loc: SrcLoc) -> ObjId {
        self.temp_count += 1;
        let name = format!("tmp${}", self.temp_count);
        let mut info = ObjectInfo::local(name, ObjKind::Temp, self.ty_text(ty), loc);
        info.in_func = self.cur_func;
        self.push(info, Some(ty))
    }

    /// File-scope variable or function object (created on first sight; a
    /// later declaration keeps the first one's type).
    fn global_object(&mut self, name: Symbol, ty: Ty<'a>, storage: Storage, loc: Loc) -> ObjId {
        if let Some(id) = self.globals[name.index()] {
            return id;
        }
        let loc = self.srcloc(loc);
        let kind = if ty.is_func() {
            ObjKind::Func
        } else {
            ObjKind::Var
        };
        let tu = self.tu;
        let linked = storage != Storage::Static;
        let info = object_info(tu.name(name).into(), kind, self.ty_text(ty), loc, linked);
        let id = self.push(info, Some(ty));
        self.globals[name.index()] = Some(id);
        id
    }

    /// Local variable object in the innermost scope.
    fn local_object(&mut self, name: Symbol, ty: &'a Type, loc: Loc) -> ObjId {
        let loc = self.srcloc(loc);
        let tu = self.tu;
        let mut info =
            ObjectInfo::local(tu.name(name), ObjKind::Var, self.ty_text(Ty::of(ty)), loc);
        info.in_func = self.cur_func;
        let id = self.push(info, Some(Ty::of(ty)));
        let shadowed = self.locals[name.index()].replace(id);
        self.shadowed.push((name, shadowed));
        id
    }

    fn open_scope(&mut self) {
        self.scopes.push(self.shadowed.len());
    }

    fn close_scope(&mut self) {
        let mark = self.scopes.pop().expect("scopes are balanced");
        for (name, shadowed) in self.shadowed.drain(mark..).rev() {
            self.locals[name.index()] = shadowed;
        }
    }

    /// The field object for `field` of `rec` (field-based model); `None` is
    /// the pool `?` for bases of unknown type. Fields of named tags link
    /// across units; anonymous tags stay file-local.
    fn field_object(
        &mut self,
        rec: Option<RecordId>,
        field: Symbol,
        ty: Ty<'a>,
        loc: Loc,
    ) -> ObjId {
        if let Some(&id) = self.fields.get(&(rec, field)) {
            return id;
        }
        let loc = self.srcloc(loc);
        let tu = self.tu;
        let tag = rec.map_or("?", |r| tu.types.record(r).tag.as_str());
        let name = format!("{tag}.{}", tu.name(field));
        let linked = !tag.starts_with("<anon");
        let info = object_info(name, ObjKind::Field, self.ty_text(ty), loc, linked);
        let id = self.push(info, Some(ty));
        self.fields.insert((rec, field), id);
        id
    }

    /// The object `name` denotes: the innermost local declaration, else
    /// nothing for an enum constant, else the file-scope object — an
    /// implicit `int` global for a name never declared (C89).
    fn resolve(&mut self, name: Symbol, loc: Loc) -> Option<ObjId> {
        if let Some(id) = self.locals[name.index()] {
            return Some(id);
        }
        if self.tu.enum_constants.contains(name) {
            return None;
        }
        Some(self.global_object(name, Ty::int(), Storage::None, loc))
    }

    fn type_of_name(&self, name: Symbol) -> Option<Ty<'a>> {
        let id = self.locals[name.index()].or(self.globals[name.index()])?;
        self.objs[id.index()].ty
    }

    // ----- function signatures ---------------------------------------------

    /// A standardized parameter or return object of `func`'s signature.
    fn sig_object(&mut self, name: String, kind: ObjKind, linked: bool, func: ObjId) -> ObjId {
        let mut info = object_info(name, kind, "", SrcLoc::NONE, linked);
        info.in_func = Some(func);
        self.push(info, None)
    }

    /// The signature record for a function or function-pointer object,
    /// creating it (with `ret`) on first use.
    fn ensure_funsig(&mut self, obj: ObjId, is_indirect: bool) -> usize {
        if let Some(ix) = self.objs[obj.index()].sig {
            return ix;
        }
        let fobj = self.unit.object(obj);
        let linked = fobj.is_global() && !is_indirect;
        let ret = self.sig_object(format!("{}$ret", fobj.name), ObjKind::Ret, linked, obj);
        let ix = self.unit.funsigs.len();
        self.unit.funsigs.push(FunSig {
            obj,
            params: Vec::new(),
            ret,
            is_indirect,
        });
        self.objs[obj.index()].sig = Some(ix);
        ix
    }

    /// The `i`-th (0-based) standardized parameter object, created on demand.
    fn param_object(&mut self, sig_ix: usize, i: usize) -> ObjId {
        while self.unit.funsigs[sig_ix].params.len() <= i {
            let sig = &self.unit.funsigs[sig_ix];
            let (obj, n) = (sig.obj, sig.params.len() + 1);
            let fobj = self.unit.object(obj);
            let linked = fobj.is_global() && !sig.is_indirect;
            let name = format!("{}${n}", fobj.name);
            let id = self.sig_object(name, ObjKind::Param, linked, obj);
            self.unit.funsigs[sig_ix].params.push(id);
        }
        self.unit.funsigs[sig_ix].params[i]
    }

    // ----- assignment emission ----------------------------------------------

    fn emit_assign(&mut self, dst: Place, src: RSrc, loc: SrcLoc) {
        let (kind, x, y) = match (dst, src.place) {
            (Place::None, _) => return,
            (Place::Obj(x), RPlace::Obj(y)) => (AssignKind::Copy, x, y),
            (Place::Obj(x), RPlace::Deref(y)) => (AssignKind::Load, x, y),
            (Place::Obj(x), RPlace::Addr(y)) => (AssignKind::Addr, x, y),
            (Place::Deref(x), RPlace::Obj(y)) => (AssignKind::Store, x, y),
            (Place::Deref(x), RPlace::Deref(y)) => (AssignKind::StoreLoad, x, y),
            (Place::Deref(x), RPlace::Addr(y)) => {
                // `*x = &y` is not primitive: introduce a temporary.
                let yty = self.objs[y.index()].ty.unwrap_or_else(Ty::int);
                let t = self.new_temp(yty.ptr_to(), loc);
                self.emit_assign(Place::Obj(t), RSrc::new(RPlace::Addr(y)), loc);
                (AssignKind::Store, x, t)
            }
        };
        // Skip no-op self copies (e.g. from `x++`).
        if kind == AssignKind::Copy && x == y {
            return;
        }
        self.unit.push_assign(PrimAssign {
            kind,
            dst: x,
            src: y,
            strength: src.strength,
            op: src.op,
            loc,
        });
    }

    /// Emits `dst = src` for every source from `start` on, then drops them.
    fn emit_all(&mut self, dst: Place, start: usize, loc: SrcLoc) {
        for i in start..self.srcs.len() {
            self.emit_assign(dst, self.srcs[i], loc);
        }
        self.srcs.truncate(start);
    }

    /// Passes the sources from `start` on through an operation.
    fn through(&mut self, start: usize, s: Strength, op: OpKind) {
        for src in &mut self.srcs[start..] {
            *src = src.through(s, op);
        }
    }

    // ----- type inference ---------------------------------------------------

    /// Best-effort static type of an expression; used to distinguish array
    /// indexing from pointer indexing, find struct tags for member access,
    /// and type temporaries. `None` means "unknown" and lowering falls back
    /// to pointer-like behaviour.
    fn type_of(&self, e: &'a Expr) -> Option<Ty<'a>> {
        match &e.kind {
            ExprKind::Ident(n) => self.type_of_name(*n),
            ExprKind::IntLit(_) | ExprKind::CharLit(_) => Some(Ty::int()),
            ExprKind::FloatLit(_) => Some(Ty::of(&Type::DOUBLE)),
            ExprKind::StrLit(s) => Some(Ty::new(TyBase::Str(self.tu.name(*s).len() as u64 + 1))),
            ExprKind::Unary(UnaryOp::Deref, inner) => self.type_of(inner)?.deref(),
            ExprKind::Unary(UnaryOp::AddrOf, inner) => Some(self.type_of(inner)?.ptr_to()),
            ExprKind::Unary(_, inner) => self.type_of(inner),
            ExprKind::Binary(op, l, r) => {
                use BinaryOp::*;
                if matches!(op, Lt | Gt | Le | Ge | Eq | Ne | LogAnd | LogOr) {
                    return Some(Ty::int());
                }
                let lt = self.type_of(l);
                if lt.is_some_and(Ty::is_pointer_like) {
                    return lt;
                }
                let rt = self.type_of(r);
                rt.filter(|t| t.is_pointer_like()).or(lt).or(rt)
            }
            ExprKind::Assign(_, l, _) => self.type_of(l),
            ExprKind::Cond(_, t, f) => self.type_of(t).or_else(|| self.type_of(f)),
            ExprKind::Cast(ty, _) | ExprKind::CompoundLit(ty, _) => Some(Ty::of(ty)),
            ExprKind::Call(callee, _) => Some(Ty::of(self.type_of(callee)?.under_fn()?.1)),
            ExprKind::Index(base, _) => self.type_of(base)?.deref(),
            ExprKind::Member { base, field, arrow } => {
                let tu = self.tu;
                Some(Ty::of(
                    &tu.types.field(self.record_of(base, *arrow)?, *field)?.ty,
                ))
            }
            ExprKind::SizeofExpr(_) | ExprKind::SizeofType(_) => Some(Ty::int()),
            ExprKind::Comma(_, r) => self.type_of(r),
            ExprKind::PostIncDec(_, inner) => self.type_of(inner),
        }
    }

    /// The record a member access (`base.f`, or `base->f` when `arrow`)
    /// goes through.
    fn record_of(&self, base: &'a Expr, arrow: bool) -> Option<RecordId> {
        let bt = self.type_of(base)?;
        if arrow {
            bt.deref()?.record()
        } else {
            bt.record()
        }
    }

    // ----- lvalues ------------------------------------------------------------

    fn lower_lvalue(&mut self, e: &'a Expr) -> Place {
        match &e.kind {
            ExprKind::Ident(name) => self.resolve(*name, e.loc).map_or(Place::None, Place::Obj),
            ExprKind::Unary(UnaryOp::Deref, inner) => {
                // `*a` where a is an array collapses to the array object
                // (index-independent model).
                if self.type_of(inner).is_some_and(Ty::is_array) {
                    return self.lower_lvalue(inner);
                }
                self.rvalue_to_obj(inner).map_or(Place::None, Place::Deref)
            }
            ExprKind::Index(base, idx) => {
                // Evaluate the index for side effects; its value is ignored
                // (index-independent arrays).
                self.lower_effects(idx);
                if self.type_of(base).is_some_and(Ty::is_array) {
                    self.lower_lvalue(base)
                } else {
                    self.rvalue_to_obj(base).map_or(Place::None, Place::Deref)
                }
            }
            ExprKind::Member { base, field, arrow } => {
                self.lower_member(base, *field, *arrow, e.loc)
            }
            ExprKind::Cast(_, inner) => self.lower_lvalue(inner),
            ExprKind::Comma(l, r) => {
                self.lower_effects(l);
                self.lower_lvalue(r)
            }
            _ => {
                // Not an lvalue (or unsupported as one); evaluate for effects.
                self.lower_effects(e);
                Place::None
            }
        }
    }

    /// Member access as a place, per the configured field model.
    fn lower_member(&mut self, base: &'a Expr, field: Symbol, arrow: bool, loc: Loc) -> Place {
        match self.opts.field_model {
            FieldModel::FieldBased => {
                // Evaluate the base for side effects only (a plain identifier
                // has none); the base object is ignored (paper: "an
                // assignment to x.f is viewed as an assignment to f and the
                // base object x is ignored").
                if arrow || !matches!(base.kind, ExprKind::Ident(_)) {
                    self.lower_effects(base);
                }
                // Unknown base type falls back to a per-name field pool so
                // same-named fields still unify.
                let rec = self.record_of(base, arrow);
                let tu = self.tu;
                let fty = rec.and_then(|r| tu.types.field(r, field));
                let fty = fty.map_or(Ty::int(), |f| Ty::of(&f.ty));
                Place::Obj(self.field_object(rec, field, fty, loc))
            }
            FieldModel::FieldIndependent => {
                if arrow {
                    self.rvalue_to_obj(base).map_or(Place::None, Place::Deref)
                } else {
                    self.lower_lvalue(base)
                }
            }
        }
    }

    // ----- rvalues ---------------------------------------------------------

    /// Appends the value a place holds: `o` or `*o`.
    fn push_place(&mut self, p: Place) {
        match p {
            Place::Obj(o) => self.srcs.push(RSrc::new(RPlace::Obj(o))),
            Place::Deref(o) => self.srcs.push(RSrc::new(RPlace::Deref(o))),
            Place::None => {}
        }
    }

    /// Lowers `e` to one object, introducing a temporary only when its
    /// value is not already a plain object.
    fn rvalue_to_obj(&mut self, e: &'a Expr) -> Option<ObjId> {
        let start = self.lower_rvalue(e);
        if self.srcs.len() == start {
            return None;
        }
        let ty = self.type_of(e).unwrap_or_else(Ty::int);
        let loc = self.srcloc(e.loc);
        if let [one @ RSrc {
            place: RPlace::Obj(id),
            ..
        }] = self.srcs[start..]
        {
            if one == RSrc::new(one.place) {
                self.srcs.truncate(start);
                return Some(id);
            }
        }
        let t = self.new_temp(ty, loc);
        self.emit_all(Place::Obj(t), start, loc);
        Some(t)
    }

    /// Evaluates an expression purely for its side effects.
    fn lower_effects(&mut self, e: &'a Expr) {
        let start = self.lower_rvalue(e);
        self.srcs.truncate(start);
    }

    /// Lowers `e` as a value: emits its side effects, appends the sources
    /// of its value to `self.srcs` and returns where they start. The caller
    /// consumes `self.srcs[start..]` and truncates back to `start`, so one
    /// buffer serves every expression of the unit.
    fn lower_rvalue(&mut self, e: &'a Expr) -> usize {
        let start = self.srcs.len();
        let loc = self.srcloc(e.loc);
        match &e.kind {
            ExprKind::Ident(name) => {
                if let Some(id) = self.resolve(*name, e.loc) {
                    // A function designator used as a value denotes its
                    // address; so does an array (array-to-pointer decay).
                    let decays = self.unit.object(id).kind == ObjKind::Func
                        || self.objs[id.index()].ty.is_some_and(Ty::is_array);
                    let place = if decays { RPlace::Addr } else { RPlace::Obj };
                    self.srcs.push(RSrc::new(place(id)));
                }
            }
            ExprKind::StrLit(s) if self.opts.model_strings => {
                self.str_count += 1;
                let text = self.tu.name(*s);
                let preview = text.char_indices().nth(8).map_or(text, |(i, _)| &text[..i]);
                let name = format!("str${}\"{preview}\"", self.str_count);
                let mut info = ObjectInfo::local(name, ObjKind::Str, "char []", loc);
                info.in_func = self.cur_func;
                let id = self.push(info, None);
                self.srcs.push(RSrc::new(RPlace::Addr(id)));
            }
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::SizeofExpr(_)
            | ExprKind::SizeofType(_) => {}
            ExprKind::Unary(UnaryOp::Deref, _) | ExprKind::Index(..) | ExprKind::Member { .. } => {
                // Check for array collapse producing a decayed value: `a[i]`
                // where the element itself is an array decays to `&a`.
                match self.lower_lvalue(e) {
                    Place::Obj(o)
                        if self.type_of(e).is_some_and(Ty::is_array)
                            && self.objs[o.index()].ty.is_some_and(Ty::is_array) =>
                    {
                        self.srcs.push(RSrc::new(RPlace::Addr(o)))
                    }
                    place => self.push_place(place),
                }
            }
            ExprKind::Unary(UnaryOp::AddrOf, inner) => match self.lower_lvalue(inner) {
                Place::Obj(o) => self.srcs.push(RSrc::new(RPlace::Addr(o))),
                Place::Deref(o) => self.srcs.push(RSrc::new(RPlace::Obj(o))), // &*p == p
                Place::None => {}
            },
            ExprKind::Unary(UnaryOp::PreInc | UnaryOp::PreDec, inner)
            | ExprKind::PostIncDec(_, inner) => {
                // ++x is x = x + 1: shape-preserving, no new sources.
                let place = self.lower_lvalue(inner);
                self.push_place(place);
            }
            ExprKind::Unary(op, inner) => {
                let Some(s) = Strength::from_class(classify_unary(*op)) else {
                    self.lower_effects(inner);
                    return start;
                };
                let opk = match op {
                    UnaryOp::Neg => OpKind::Neg,
                    UnaryOp::BitNot => OpKind::BitNot,
                    _ => OpKind::Direct,
                };
                self.lower_rvalue(inner);
                self.through(start, s, opk);
            }
            ExprKind::Binary(op, l, r) => {
                let (c1, c2) = classify_binary(*op);
                let opk = OpKind::from_binary(*op);
                for (class, side) in [(c1, l), (c2, r)] {
                    match Strength::from_class(class) {
                        Some(s) => {
                            let at = self.lower_rvalue(side);
                            self.through(at, s, opk);
                        }
                        None => self.lower_effects(side),
                    }
                }
            }
            ExprKind::Assign(op, lhs, rhs) => {
                let place = self.lower_lvalue(lhs);
                match op {
                    None => {
                        self.lower_rvalue(rhs);
                    }
                    Some(bop) => {
                        // x op= y behaves as x = x op y; the x = x part is a
                        // self-copy, so only y's contribution is emitted.
                        let (_, c2) = classify_binary(*bop);
                        match Strength::from_class(c2) {
                            Some(s) => {
                                self.lower_rvalue(rhs);
                                self.through(start, s, OpKind::from_binary(*bop));
                            }
                            None => self.lower_effects(rhs),
                        }
                    }
                }
                self.emit_all(place, start, loc);
                self.push_place(place);
            }
            ExprKind::Cond(c, t, f) => {
                self.lower_effects(c);
                self.lower_rvalue(t);
                self.lower_rvalue(f);
                self.through(start, Strength::Strong, OpKind::Cond);
            }
            ExprKind::Cast(_, inner) => {
                self.lower_rvalue(inner);
                self.through(start, Strength::Strong, OpKind::Cast);
            }
            ExprKind::Call(callee, args) => self.lower_call(callee, args, e.loc),
            ExprKind::Comma(l, r) => {
                self.lower_effects(l);
                self.lower_rvalue(r);
            }
            ExprKind::CompoundLit(ty, inits) => {
                let t = self.new_temp(Ty::of(ty), loc);
                self.lower_braced_init(Place::Obj(t), ty, inits, e.loc);
                self.srcs.push(RSrc::new(RPlace::Obj(t)));
            }
        }
        start
    }

    // ----- calls -----------------------------------------------------------

    /// Identifies the call target: a direct function object, or an object
    /// holding a function pointer.
    fn callee_object(&mut self, callee: &'a Expr) -> Option<(ObjId, bool)> {
        match &callee.kind {
            // `(*f)(...)` and `f(...)` are the same call — but only strip the
            // `*` when the operand is itself the function (pointer); for
            // `(**fpp)()` the inner deref is a real load.
            ExprKind::Unary(UnaryOp::Deref, inner)
                if self
                    .type_of(inner)
                    .is_none_or(|t| t.under_fn().is_some_and(|(depth, _)| depth <= 1)) =>
            {
                self.callee_object(inner)
            }
            ExprKind::Ident(name) => {
                // Local variable holding a function pointer?
                if let Some(id) = self.locals[name.index()] {
                    return Some((id, true));
                }
                if let Some(id) = self.globals[name.index()] {
                    let direct = self.unit.object(id).kind == ObjKind::Func;
                    return Some((id, !direct));
                }
                // Implicit function declaration.
                let fty = Ty::new(TyBase::Func(&IMPLICIT_FN));
                let f = self.global_object(*name, fty, Storage::None, callee.loc);
                Some((f, false))
            }
            _ => Some((self.rvalue_to_obj(callee)?, true)),
        }
    }

    /// Lowers a call; the value it appends is the callee's return object.
    fn lower_call(&mut self, callee: &'a Expr, args: &'a [Expr], cloc: Loc) {
        let loc = self.srcloc(cloc);
        // Allocation sites: a fresh heap object per static occurrence.
        if let ExprKind::Ident(name) = callee.kind {
            let tu = self.tu;
            if self.opts.allocator_names.iter().any(|a| a == tu.name(name))
                && self.type_of_name(name).is_none_or(Ty::is_func)
            {
                for a in args {
                    self.lower_effects(a);
                }
                let site = format!("heap@{}:{}", self.unit.files.name(loc.file), loc.line);
                let mut info = ObjectInfo::local(site, ObjKind::Heap, "<heap>", loc);
                info.in_func = self.cur_func;
                let id = self.push(info, None);
                self.srcs.push(RSrc::new(RPlace::Addr(id)));
                return;
            }
        }
        let Some((fobj, indirect)) = self.callee_object(callee) else {
            for a in args {
                self.lower_effects(a);
            }
            return;
        };
        let sig = self.ensure_funsig(fobj, indirect);
        for (i, a) in args.iter().enumerate() {
            let param = self.param_object(sig, i);
            let start = self.lower_rvalue(a);
            self.through(start, Strength::Strong, OpKind::Arg);
            self.emit_all(Place::Obj(param), start, loc);
        }
        let ret = self.unit.funsigs[sig].ret;
        let value = RSrc::new(RPlace::Obj(ret)).through(Strength::Strong, OpKind::RetVal);
        self.srcs.push(value);
    }

    // ----- declarations & initializers --------------------------------------

    fn lower_file_scope_decl(&mut self, d: &'a Declaration) {
        if d.is_typedef {
            return;
        }
        for item in &d.items {
            let obj = self.global_object(item.name, Ty::of(&item.ty), d.storage, item.loc);
            // A file-scope declarator defines the object unless it is a
            // function prototype or `extern` without an initializer
            // (tentative definitions `int x;` count as definitions).
            let is_proto = matches!(item.ty, Type::Function(_));
            if !is_proto && (d.storage != Storage::Extern || item.init.is_some()) {
                self.unit.objects[obj.index()].defined = true;
            }
            if let Some(init) = &item.init {
                self.lower_init(Place::Obj(obj), &item.ty, init, item.loc);
            }
        }
    }

    fn lower_local_decl(&mut self, d: &'a Declaration) {
        if d.is_typedef {
            return;
        }
        for item in &d.items {
            let obj = if d.storage == Storage::Extern {
                self.global_object(item.name, Ty::of(&item.ty), Storage::None, item.loc)
            } else {
                // `static` locals are still file-local objects; the scope
                // entry makes the name resolve to them.
                self.local_object(item.name, &item.ty, item.loc)
            };
            if let Some(init) = &item.init {
                self.lower_init(Place::Obj(obj), &item.ty, init, item.loc);
            }
        }
    }

    fn lower_init(&mut self, place: Place, ty: &'a Type, init: &'a Initializer, loc: Loc) {
        match init {
            Initializer::Expr(e) => {
                // Char-array = string literal: nothing flows (strings are
                // ignored by default; with strings modeled, the literal is
                // an object whose address flows only into pointers).
                if matches!(ty, Type::Array(..)) && matches!(e.kind, ExprKind::StrLit(_)) {
                    return;
                }
                let sloc = self.srcloc(loc);
                let start = self.lower_rvalue(e);
                self.through(start, Strength::Strong, OpKind::Init);
                self.emit_all(place, start, sloc);
            }
            Initializer::List(items) => self.lower_braced_init(place, ty, items, loc),
        }
    }

    fn lower_braced_init(
        &mut self,
        place: Place,
        ty: &'a Type,
        items: &'a [(Designator, Initializer)],
        loc: Loc,
    ) {
        match ty {
            Type::Array(elem, _) => {
                // Index-independent: every element initializes the same
                // abstract object.
                for (_, init) in items {
                    self.lower_init(place, elem, init, loc);
                }
            }
            Type::Record(id) => {
                let tu = self.tu;
                let rec = tu.types.record(*id);
                let mut cursor = 0usize;
                for (desig, init) in items {
                    if let Designator::Field(f) = desig {
                        let Some(at) = rec.fields.iter().position(|x| x.name == *f) else {
                            continue;
                        };
                        cursor = at;
                    }
                    let Some(field) = rec.fields.get(cursor) else {
                        continue;
                    };
                    let fplace = match self.opts.field_model {
                        FieldModel::FieldBased => {
                            let fty = Ty::of(&field.ty);
                            Place::Obj(self.field_object(Some(*id), field.name, fty, loc))
                        }
                        FieldModel::FieldIndependent => place,
                    };
                    self.lower_init(fplace, &field.ty, init, loc);
                    cursor += 1;
                }
            }
            // Scalar with redundant braces: `int x = {1};`
            _ => {
                if let Some((_, init)) = items.first() {
                    self.lower_init(place, ty, init, loc);
                }
            }
        }
    }

    // ----- functions ---------------------------------------------------------

    fn lower_function(&mut self, f: &'a FunctionDef) {
        let fobj = self.global_object(f.name, Ty::new(TyBase::Func(&f.ty)), f.storage, f.loc);
        self.unit.objects[fobj.index()].defined = true;
        let sig = self.ensure_funsig(fobj, false);
        self.cur_func = Some(fobj);
        self.open_scope();
        // Parameters: local objects initialized from the standardized
        // parameter variables (paper: `x = f1, y = f2`).
        let loc = self.srcloc(f.loc);
        for (i, p) in f.ty.params.iter().enumerate() {
            let Some(name) = p.name else { continue };
            let pobj = self.param_object(sig, i);
            let lobj = self.local_object(name, &p.ty, p.loc);
            self.emit_assign(Place::Obj(lobj), RSrc::new(RPlace::Obj(pobj)), loc);
        }
        let ret = self.unit.funsigs[sig].ret;
        self.lower_block(&f.body, ret);
        self.close_scope();
        self.cur_func = None;
    }

    fn lower_block(&mut self, b: &'a Block, ret: ObjId) {
        self.open_scope();
        for item in &b.items {
            match item {
                BlockItem::Decl(d) => self.lower_local_decl(d),
                BlockItem::Stmt(s) => self.lower_stmt(s, ret),
            }
        }
        self.close_scope();
    }

    fn lower_stmt(&mut self, s: &'a Stmt, ret: ObjId) {
        match s {
            Stmt::Expr(None) | Stmt::Break | Stmt::Continue | Stmt::Goto(_) => {}
            Stmt::Expr(Some(e)) => self.lower_effects(e),
            Stmt::Block(b) => self.lower_block(b, ret),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.lower_effects(cond);
                self.lower_stmt(then_branch, ret);
                if let Some(e) = else_branch {
                    self.lower_stmt(e, ret);
                }
            }
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                self.lower_effects(cond);
                self.lower_stmt(body, ret);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.open_scope();
                match init {
                    Some(ForInit::Decl(d)) => self.lower_local_decl(d),
                    Some(ForInit::Expr(e)) => self.lower_effects(e),
                    None => {}
                }
                if let Some(c) = cond {
                    self.lower_effects(c);
                }
                if let Some(st) = step {
                    self.lower_effects(st);
                }
                self.lower_stmt(body, ret);
                self.close_scope();
            }
            Stmt::Switch { cond, body } => {
                self.lower_effects(cond);
                self.lower_stmt(body, ret);
            }
            Stmt::Case { value: _, body } | Stmt::Default { body } | Stmt::Label { body, .. } => {
                self.lower_stmt(body, ret)
            }
            Stmt::Return { value, loc } => {
                if let Some(e) = value {
                    let sloc = self.srcloc(*loc);
                    let start = self.lower_rvalue(e);
                    self.emit_all(Place::Obj(ret), start, sloc);
                }
            }
        }
    }
}
