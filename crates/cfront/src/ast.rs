//! Abstract syntax tree for C translation units.
//!
//! Names are [`Symbol`]s of the unit's [`Interner`], which the
//! [`TranslationUnit`] owns: the parser copies no spelling into the tree, and
//! lowering resolves a name by its symbol's index.

use crate::span::Loc;
use crate::token::{Interner, Symbol, SymbolSet};
use crate::types::{FuncType, Type, TypeTable};

/// One parsed translation unit (a `.c` file after preprocessing).
#[derive(Debug)]
pub struct TranslationUnit {
    /// Path of the main source file.
    pub file: String,
    /// Top-level declarations and function definitions, in order.
    pub items: Vec<ExternalDecl>,
    /// Record (struct/union) definitions referenced by the AST.
    pub types: TypeTable,
    /// Enum constants seen in this unit; the lowering treats them as integer
    /// literals rather than objects unless a local declaration shadows them.
    pub enum_constants: SymbolSet,
    /// Spells every [`Symbol`] of the tree.
    pub interner: Interner,
}

impl TranslationUnit {
    /// The spelling of `sym`, a symbol of this unit's tree.
    pub fn name(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }
}

/// A top-level item.
#[derive(Debug)]
pub enum ExternalDecl {
    Function(FunctionDef),
    Declaration(Declaration),
}

/// Storage class of a declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Storage {
    #[default]
    None,
    Extern,
    Static,
    Auto,
    Register,
}

/// A function definition (declaration with a body).
#[derive(Debug)]
pub struct FunctionDef {
    pub name: Symbol,
    pub ty: FuncType,
    pub storage: Storage,
    pub body: Block,
    pub loc: Loc,
}

/// A declaration: specifiers plus a list of init-declarators.
#[derive(Debug)]
pub struct Declaration {
    pub storage: Storage,
    pub is_typedef: bool,
    pub items: Vec<InitDeclarator>,
    pub loc: Loc,
}

/// One declarator with its optional initializer.
#[derive(Debug)]
pub struct InitDeclarator {
    pub name: Symbol,
    pub ty: Type,
    pub init: Option<Initializer>,
    pub loc: Loc,
}

/// An initializer.
#[derive(Debug)]
pub enum Initializer {
    Expr(Expr),
    /// `{ ... }` list; each element may carry a designator.
    List(Vec<(Designator, Initializer)>),
}

/// A C99 designator on a braced-initializer element.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Designator {
    /// Positional (no designator).
    #[default]
    None,
    /// `.field =`
    Field(Symbol),
    /// `[index] =` (constant index, when it folded).
    Index(Option<u64>),
}

/// A brace-enclosed block.
#[derive(Debug)]
pub struct Block {
    pub items: Vec<BlockItem>,
    pub loc: Loc,
}

/// An element of a block.
#[derive(Debug)]
pub enum BlockItem {
    Decl(Declaration),
    Stmt(Stmt),
}

/// A statement.
#[derive(Debug)]
pub enum Stmt {
    /// Expression statement; `None` for the empty statement `;`.
    Expr(Option<Expr>),
    Block(Block),
    If {
        cond: Expr,
        then_branch: Box<Stmt>,
        else_branch: Option<Box<Stmt>>,
    },
    While {
        cond: Expr,
        body: Box<Stmt>,
    },
    DoWhile {
        body: Box<Stmt>,
        cond: Expr,
    },
    For {
        init: Option<ForInit>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Box<Stmt>,
    },
    Switch {
        cond: Expr,
        body: Box<Stmt>,
    },
    Case {
        value: Expr,
        body: Box<Stmt>,
    },
    Default {
        body: Box<Stmt>,
    },
    Return {
        value: Option<Expr>,
        loc: Loc,
    },
    Break,
    Continue,
    Goto(Symbol),
    Label {
        name: Symbol,
        body: Box<Stmt>,
    },
}

/// The first clause of a `for`.
#[derive(Debug)]
pub enum ForInit {
    Decl(Declaration),
    Expr(Expr),
}

/// An expression with its source location.
#[derive(Debug)]
pub struct Expr {
    pub kind: ExprKind,
    pub loc: Loc,
}

impl Expr {
    /// Creates an expression node.
    pub fn new(kind: ExprKind, loc: Loc) -> Self {
        Expr { kind, loc }
    }
}

/// Expression shapes.
#[derive(Debug)]
pub enum ExprKind {
    Ident(Symbol),
    IntLit(u64),
    FloatLit(f64),
    CharLit(i64),
    /// A string literal's text, escapes decoded and adjacent literals
    /// joined.
    StrLit(Symbol),
    Unary(UnaryOp, Box<Expr>),
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// `lhs op= rhs`; `op` is `None` for plain `=`.
    Assign(Option<BinaryOp>, Box<Expr>, Box<Expr>),
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    Cast(Type, Box<Expr>),
    Call(Box<Expr>, Vec<Expr>),
    Index(Box<Expr>, Box<Expr>),
    Member {
        base: Box<Expr>,
        field: Symbol,
        arrow: bool,
    },
    SizeofExpr(Box<Expr>),
    SizeofType(Type),
    Comma(Box<Expr>, Box<Expr>),
    PostIncDec(IncDec, Box<Expr>),
    /// `(T){ ... }` compound literal.
    CompoundLit(Type, Vec<(Designator, Initializer)>),
}

/// Prefix unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Deref,
    AddrOf,
    Neg,
    Pos,
    LogicalNot,
    BitNot,
    PreInc,
    PreDec,
}

/// `++` / `--` flavor for postfix forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncDec {
    Inc,
    Dec,
}

/// Binary operators (assignment and comma are separate nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    BitAnd,
    BitXor,
    BitOr,
    LogAnd,
    LogOr,
}

impl BinaryOp {
    /// The C spelling of the operator.
    pub fn as_str(self) -> &'static str {
        use BinaryOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Rem => "%",
            Shl => "<<",
            Shr => ">>",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            Eq => "==",
            Ne => "!=",
            BitAnd => "&",
            BitXor => "^",
            BitOr => "|",
            LogAnd => "&&",
            LogOr => "||",
        }
    }
}

impl std::fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_op_spelling() {
        assert_eq!(BinaryOp::Shl.as_str(), "<<");
        assert_eq!(format!("{}", BinaryOp::LogAnd), "&&");
    }

    #[test]
    fn expr_construction() {
        let e = Expr::new(ExprKind::IntLit(3), Loc::BUILTIN);
        assert!(matches!(e.kind, ExprKind::IntLit(3)));
        assert_eq!(e.loc, Loc::BUILTIN);
    }

    #[test]
    fn designator_default() {
        assert_eq!(Designator::default(), Designator::None);
    }
}
