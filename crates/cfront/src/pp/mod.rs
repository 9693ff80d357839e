//! The C preprocessor.
//!
//! Directive handling (`#include`, `#define`, conditionals, …) plus macro
//! expansion over the token stream produced by the [`crate::lexer`] module.
//! The output is a flat token vector ready for the parser, together with the
//! [`SourceMap`] of all files read and byte/line statistics used by the
//! Table 2 benchmark harness.

mod cond;
mod expand;
mod fs;

pub use expand::{spell, ExpandStats, MacroDef, MacroTable};
pub use fs::{dir_of, join_path, normalize_path, FileProvider, MemoryFs, OsFs};

use crate::error::{CError, Result};
use crate::lexer;
use crate::span::{FileId, Loc, SourceMap};
use crate::token::{sym, Interner, Punct, Token, TokenKind, TokenStream};
use expand::{Expander, HideNode};
use std::collections::HashSet;
use std::sync::Arc;

/// Per-unit resource budgets protecting the frontend from hostile or
/// pathological input (DESIGN.md §14). Exceeding any budget produces a
/// typed [`CError::Budget`], never a panic or an unbounded loop. The
/// include-nesting budget lives in [`PpOptions::max_include_depth`] for
/// backward compatibility; overflowing it is also a budget error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontendLimits {
    /// Macro invocations expanded per translation unit (0 = unlimited).
    /// The default absorbs heavy generated code but stops macro bombs.
    pub macro_fuel: usize,
    /// Preprocessed tokens emitted per translation unit (0 = unlimited).
    pub max_tokens: usize,
    /// Parser recursion depth for nested expressions/declarators
    /// (0 = the historical default of 64).
    pub max_parser_depth: u32,
    /// Wall-clock deadline for preprocessing + parsing one unit, in
    /// milliseconds (0 = none). Checked periodically, so overruns are
    /// bounded by one check interval, not exact.
    pub deadline_ms: u64,
}

impl Default for FrontendLimits {
    fn default() -> Self {
        FrontendLimits {
            macro_fuel: 4_000_000,
            max_tokens: 33_554_432,
            max_parser_depth: 64,
            deadline_ms: 0,
        }
    }
}

impl FrontendLimits {
    /// The parser depth bound with the 0-means-default rule applied.
    #[must_use]
    pub fn parser_depth(&self) -> u32 {
        if self.max_parser_depth == 0 {
            64
        } else {
            self.max_parser_depth
        }
    }

    /// The deadline as an absolute instant from now, if one is set.
    #[must_use]
    pub fn deadline_from_now(&self) -> Option<std::time::Instant> {
        (self.deadline_ms > 0)
            .then(|| std::time::Instant::now() + std::time::Duration::from_millis(self.deadline_ms))
    }
}

/// Preprocessor configuration.
#[derive(Debug, Clone, Default)]
pub struct PpOptions {
    /// Directories searched for `#include` (both forms; quoted includes try
    /// the including file's directory first).
    pub include_dirs: Vec<String>,
    /// Predefined object-like macros, as `(name, body)` pairs.
    pub defines: Vec<(String, String)>,
    /// Maximum `#include` nesting depth (default 64).
    pub max_include_depth: usize,
    /// Resource budgets for hostile-input protection.
    pub limits: FrontendLimits,
}

impl PpOptions {
    /// Options with a predefined macro added.
    pub fn define(mut self, name: impl Into<String>, body: impl Into<String>) -> Self {
        self.defines.push((name.into(), body.into()));
        self
    }

    /// Options with an include directory added.
    pub fn include_dir(mut self, dir: impl Into<String>) -> Self {
        self.include_dirs.push(dir.into());
        self
    }
}

/// Statistics gathered while preprocessing one translation unit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PpStats {
    /// Files read (main file + headers, counting repeats).
    pub files_read: usize,
    /// Total bytes of source consumed.
    pub bytes_in: u64,
    /// Tokens emitted after preprocessing.
    pub tokens_out: usize,
    /// Approximate preprocessed line count (distinct source lines that
    /// contributed at least one output token).
    pub lines_out: usize,
    /// Macro invocations expanded.
    pub macro_expansions: usize,
}

/// The result of preprocessing one translation unit.
#[derive(Debug)]
pub struct Preprocessed {
    /// The fully expanded token stream (no `Eof` sentinel), carrying the
    /// unit's interner.
    pub tokens: TokenStream,
    /// All files read, for location rendering.
    pub sources: SourceMap,
    /// Every `#include` candidate probed and found missing, in probe order:
    /// the other half of what the output depends on. A file created at one
    /// of these paths would be read instead of the header found later.
    pub missing: Vec<String>,
    /// Statistics.
    pub stats: PpStats,
}

/// Preprocesses `main_path` read from `fs` into a token stream.
///
/// # Errors
///
/// Returns [`CError::Pp`] when the main file is missing, an include cannot be
/// resolved, a directive is malformed, or `#error` fires; lexical errors from
/// any included file propagate as [`CError::Lex`].
pub fn preprocess(
    fs: &dyn FileProvider,
    main_path: &str,
    opts: &PpOptions,
) -> Result<Preprocessed> {
    let mut pp = Pp {
        fs,
        opts,
        sources: SourceMap::new(),
        interner: Interner::new(),
        macros: MacroTable::new(),
        hides: Vec::new(),
        out: Vec::new(),
        missing: Vec::new(),
        stats: PpStats::default(),
        expand_stats: ExpandStats {
            fuel: opts.limits.macro_fuel,
            ..ExpandStats::default()
        },
        cond_stack: Vec::new(),
        lines: LineCount::default(),
        line: LineState::default(),
        include_stack: Vec::new(),
        deadline: opts.limits.deadline_from_now(),
        deadline_ticks: 0,
    };
    for (name, body) in &opts.defines {
        let body = lexer::lex_into(body, FileId::BUILTIN, &mut pp.interner)?;
        let name = pp.interner.intern(name);
        pp.macros.insert(name, MacroDef::Object { body });
    }
    let src = fs
        .read(main_path)
        .ok_or_else(|| CError::pp(format!("cannot open `{main_path}`"), Loc::BUILTIN))?;
    pp.process_file(main_path, src, Loc::BUILTIN, 0)?;
    if let Some(open) = pp.cond_stack.last() {
        return Err(CError::pp(
            "unterminated conditional (#if without #endif)",
            open.loc,
        ));
    }
    pp.stats.tokens_out = pp.out.len();
    pp.stats.macro_expansions = pp.expand_stats.expansions;
    pp.stats.lines_out = pp.lines.total();
    Ok(Preprocessed {
        tokens: TokenStream::new(pp.out, pp.interner),
        sources: pp.sources,
        missing: pp.missing,
        stats: pp.stats,
    })
}

/// One level of `#if` nesting.
#[derive(Debug)]
struct Cond {
    /// Location of the opening `#if`, for error reporting.
    loc: Loc,
    /// Whether the enclosing context is active.
    parent_active: bool,
    /// Whether the current branch is being emitted.
    active: bool,
    /// Whether any branch of this conditional has been taken yet.
    taken: bool,
    /// Whether `#else` has been seen.
    seen_else: bool,
}

/// Counts the distinct `(file, line)` pairs among the emitted tokens
/// ([`PpStats::lines_out`]) without hashing per token.
///
/// A file's tokens come out in line order, an `#include` sits on a line of
/// its own, and every inclusion gets a fresh [`FileId`], so all tokens of
/// one pair are adjacent in the output: counting the places where the pair
/// changes counts the pairs. `#line` breaks that — presumed lines can repeat
/// and collide with real ones — so the pairs of a file that has seen a
/// `#line` (the ones it emitted before, too: [`LineCount::move_to_presumed`])
/// are kept in a set instead.
#[derive(Debug, Default)]
struct LineCount {
    /// Pair changes among tokens of files with no `#line` so far.
    runs: usize,
    /// Pairs of files with a `#line`, and of the files it presumes.
    presumed: HashSet<(FileId, u32)>,
    /// Pair of the newest token counted either way.
    last: Option<(FileId, u32)>,
}

impl LineCount {
    fn add(&mut self, tokens: &[Token], line_seen: bool) {
        for t in tokens {
            let pair = (t.loc.file, t.loc.line);
            if Some(pair) != self.last {
                self.last = Some(pair);
                if line_seen {
                    self.presumed.insert(pair);
                } else {
                    self.runs += 1;
                }
            }
        }
    }

    /// `file` has just seen its first `#line`: moves the pairs its tokens
    /// so far contributed from `runs` into `presumed`. `emitted` is the
    /// output since the file was entered (its includes' tokens among its
    /// own).
    fn move_to_presumed(&mut self, file: FileId, emitted: &[Token]) {
        let mut last_line = None;
        for t in emitted.iter().filter(|t| t.loc.file == file) {
            if last_line != Some(t.loc.line) {
                last_line = Some(t.loc.line);
                self.runs -= 1;
                self.presumed.insert((file, t.loc.line));
            }
        }
        self.last = None;
    }

    fn total(&self) -> usize {
        self.runs + self.presumed.len()
    }
}

/// `#line` state of the file being processed; an `#include` starts a fresh
/// one and the includer's comes back afterwards.
#[derive(Debug, Default, Clone, Copy)]
struct LineState {
    /// Added to physical line numbers (0 without a live remapping).
    adjust: i64,
    /// The presumed file, once a `#line N "file"` named one.
    file: Option<FileId>,
    /// Whether the file has had a `#line` directive at all.
    seen: bool,
    /// `out.len()` when the file was entered.
    out_start: usize,
}

struct Pp<'a> {
    fs: &'a dyn FileProvider,
    opts: &'a PpOptions,
    sources: SourceMap,
    /// Include candidates probed and not found.
    missing: Vec<String>,
    /// Spellings of every file of the unit; ends up in the output stream.
    interner: Interner,
    macros: MacroTable,
    /// Hide-set arena lent to each [`Expander`].
    hides: Vec<HideNode>,
    out: Vec<Token>,
    stats: PpStats,
    expand_stats: ExpandStats,
    cond_stack: Vec<Cond>,
    lines: LineCount,
    line: LineState,
    /// Resolved paths of files currently being processed, outermost first —
    /// re-entering one is an include cycle.
    include_stack: Vec<String>,
    /// Absolute wall-clock deadline for this unit, if budgeted.
    deadline: Option<std::time::Instant>,
    /// Logical lines processed since the last deadline check.
    deadline_ticks: u32,
}

/// How many logical lines may pass between wall-clock deadline checks;
/// bounds both the overrun and the `Instant::now` overhead on clean input.
const DEADLINE_CHECK_INTERVAL: u32 = 128;

impl<'a> Pp<'a> {
    /// Whether lines are being emitted. A level is only ever active inside
    /// an active parent, so the innermost level answers for the whole stack.
    fn active(&self) -> bool {
        self.cond_stack.last().is_none_or(|c| c.active)
    }

    fn expander(&mut self) -> Expander<'_> {
        Expander {
            macros: &self.macros,
            interner: &mut self.interner,
            stats: &mut self.expand_stats,
            hides: &mut self.hides,
        }
    }

    fn push_cond(&mut self, loc: Loc, value: bool) {
        let parent_active = self.active();
        self.cond_stack.push(Cond {
            loc,
            parent_active,
            active: parent_active && value,
            taken: value,
            seen_else: false,
        });
    }

    fn process_file(&mut self, path: &str, src: Arc<str>, from: Loc, depth: usize) -> Result<()> {
        let max_depth = if self.opts.max_include_depth == 0 {
            64
        } else {
            self.opts.max_include_depth
        };
        if depth > max_depth {
            return Err(CError::budget(
                format!("#include nesting deeper than {max_depth} at `{path}`"),
                from,
            ));
        }
        if self.include_stack.iter().any(|p| p == path) {
            return Err(CError::include_cycle(
                format!(
                    "`{path}` is included while still being processed ({})",
                    self.include_stack.join(" -> ")
                ),
                from,
            ));
        }
        self.include_stack.push(path.to_string());
        let r = self.process_file_inner(path, src, from, depth);
        self.include_stack.pop();
        r
    }

    fn process_file_inner(
        &mut self,
        path: &str,
        src: Arc<str>,
        from: Loc,
        depth: usize,
    ) -> Result<()> {
        self.stats.files_read += 1;
        self.stats.bytes_in += src.len() as u64;
        let file = self.sources.add_file(path, src.clone());
        let tokens = lexer::lex_into(&src, file, &mut self.interner)?;
        // Room for every line of the file to pass through unexpanded.
        self.out.reserve(tokens.len());
        let cond_depth_at_entry = self.cond_stack.len();
        // #line remappings are per-file.
        let includer_line = std::mem::replace(
            &mut self.line,
            LineState {
                out_start: self.out.len(),
                ..LineState::default()
            },
        );

        // Walk logical lines.
        let mut i = 0;
        while i < tokens.len() {
            // A logical line runs until the next `first_on_line` token.
            let mut macro_hit = false;
            let mut j = i;
            loop {
                if let TokenKind::Ident(name) = tokens[j].kind {
                    macro_hit |= self.macros.contains(name);
                }
                j += 1;
                if j == tokens.len() || tokens[j].first_on_line {
                    break;
                }
            }
            let line = &tokens[i..j];
            i = j;
            self.check_budgets(line[0].loc)?;
            if line[0].is_punct(Punct::Hash) {
                self.directive(&line[1..], line[0].loc, path, depth)?;
                continue;
            }
            if !self.active() {
                continue;
            }
            let emitted_from = self.out.len();
            if macro_hit {
                let mut out = std::mem::take(&mut self.out);
                let expanded = self.expander().expand(line, &mut out);
                self.out = out;
                expanded?;
            } else {
                // The fast lane: no identifier of the line is a macro right
                // now, so expansion would hand every token back unchanged.
                self.out.extend_from_slice(line);
            }
            if self.line.adjust != 0 || self.line.file.is_some() {
                for t in &mut self.out[emitted_from..] {
                    if t.loc.file == file {
                        t.loc.line = (i64::from(t.loc.line) + self.line.adjust).max(1) as u32;
                        if let Some(f) = self.line.file {
                            t.loc.file = f;
                        }
                    }
                }
            }
            self.lines.add(&self.out[emitted_from..], self.line.seen);
        }
        self.line = includer_line;
        match self.cond_stack.last() {
            Some(open) if self.cond_stack.len() > cond_depth_at_entry => Err(CError::pp(
                "unterminated conditional (#if without #endif)",
                open.loc,
            )),
            _ if self.cond_stack.len() < cond_depth_at_entry => Err(CError::pp(
                format!("`{path}` closes a conditional of the file that includes it"),
                from,
            )),
            _ => Ok(()),
        }
    }

    /// Enforces the per-unit token cap and (periodically) the wall-clock
    /// deadline. Called once per logical line, so every budget overrun is
    /// caught within one line of work.
    fn check_budgets(&mut self, loc: Loc) -> Result<()> {
        let cap = self.opts.limits.max_tokens;
        if cap != 0 && self.out.len() > cap {
            return Err(CError::budget(
                format!("preprocessed output exceeds {cap} tokens"),
                loc,
            ));
        }
        if let Some(deadline) = self.deadline {
            self.deadline_ticks += 1;
            if self.deadline_ticks >= DEADLINE_CHECK_INTERVAL {
                self.deadline_ticks = 0;
                if std::time::Instant::now() > deadline {
                    return Err(CError::budget(
                        format!(
                            "preprocessing exceeded the {} ms deadline",
                            self.opts.limits.deadline_ms
                        ),
                        loc,
                    ));
                }
            }
        }
        Ok(())
    }

    /// Macro-expands the argument tokens of a directive.
    fn expand_args(&mut self, args: &[Token]) -> Result<Vec<Token>> {
        let mut out = Vec::new();
        self.expander().expand(args, &mut out)?;
        Ok(out)
    }

    fn directive(&mut self, rest: &[Token], loc: Loc, cur_path: &str, depth: usize) -> Result<()> {
        // A lone `#` is a null directive.
        let Some((first, args)) = rest.split_first() else {
            return Ok(());
        };
        let name = first.kind.ident();
        match name {
            Some(sym::IF) => {
                // An #if inside a skipped region is pushed but its expression
                // is not evaluated (it may use constructs we cannot resolve).
                let v = self.active() && cond::eval_condition(args, &mut self.expander(), loc)?;
                self.push_cond(loc, v);
                Ok(())
            }
            Some(sym::IFDEF | sym::IFNDEF) => {
                let (ifdef, spelled) = if name == Some(sym::IFDEF) {
                    (true, "ifdef")
                } else {
                    (false, "ifndef")
                };
                let id = args
                    .first()
                    .and_then(|t| t.kind.ident())
                    .ok_or_else(|| CError::pp(format!("#{spelled} needs an identifier"), loc))?;
                self.push_cond(loc, self.macros.contains(id) == ifdef);
                Ok(())
            }
            Some(sym::ELIF) => {
                let Some(top) = self.cond_stack.last() else {
                    return Err(CError::pp("#elif without #if", loc));
                };
                if top.seen_else {
                    return Err(CError::pp("#elif after #else", loc));
                }
                let v = !top.taken
                    && top.parent_active
                    && cond::eval_condition(args, &mut self.expander(), loc)?;
                let top = self.cond_stack.last_mut().expect("checked above");
                top.active = v;
                top.taken |= v;
                Ok(())
            }
            Some(sym::ELSE) => {
                let Some(top) = self.cond_stack.last_mut() else {
                    return Err(CError::pp("#else without #if", loc));
                };
                if top.seen_else {
                    return Err(CError::pp("duplicate #else", loc));
                }
                top.seen_else = true;
                top.active = top.parent_active && !top.taken;
                top.taken = true;
                Ok(())
            }
            Some(sym::ENDIF) => {
                if self.cond_stack.pop().is_none() {
                    return Err(CError::pp("#endif without #if", loc));
                }
                Ok(())
            }
            _ if !self.active() => Ok(()), // other directives in skipped regions are ignored
            Some(sym::DEFINE) => self.define(args, loc),
            Some(sym::UNDEF) => {
                let id = args
                    .first()
                    .and_then(|t| t.kind.ident())
                    .ok_or_else(|| CError::pp("#undef needs an identifier", loc))?;
                self.macros.remove(id);
                Ok(())
            }
            Some(sym::INCLUDE) => self.include(args, loc, cur_path, depth),
            Some(sym::ERROR) => {
                let msg: Vec<String> = args.iter().map(|t| spell(t, &self.interner)).collect();
                Err(CError::pp(format!("#error {}", msg.join(" ")), loc))
            }
            Some(sym::LINE) => {
                // `#line N ["file"]`: subsequent lines are presumed to come
                // from line N (of the given file). Common in generated code.
                let toks = self.expand_args(args)?;
                let Some(TokenKind::Int(n, _)) = toks.first().map(|t| t.kind) else {
                    return Err(CError::pp("#line needs a line number", loc));
                };
                if !self.line.seen {
                    self.line.seen = true;
                    self.lines
                        .move_to_presumed(loc.file, &self.out[self.line.out_start..]);
                }
                // The next physical line is loc.line + 1 and must appear as n.
                self.line.adjust = n as i64 - i64::from(loc.line) - 1;
                // A bare `#line N` keeps the current presumed file name.
                if let Some(TokenKind::Str(name)) = toks.get(1).map(|t| t.kind) {
                    let name = self.interner.resolve(name);
                    self.line.file = Some(self.sources.add_file(name, "".into()));
                }
                Ok(())
            }
            Some(sym::WARNING | sym::PRAGMA | sym::IDENT) => Ok(()), // accepted and ignored
            other => Err(CError::pp(
                format!(
                    "unknown directive #{}",
                    other.map_or("", |s| self.interner.resolve(s))
                ),
                loc,
            )),
        }
    }

    fn define(&mut self, args: &[Token], loc: Loc) -> Result<()> {
        let Some((name_tok, rest)) = args.split_first() else {
            return Err(CError::pp("#define needs a name", loc));
        };
        let Some(name) = name_tok.kind.ident() else {
            return Err(CError::pp("#define needs an identifier", loc));
        };
        // Function-like iff `(` immediately follows the name (no whitespace).
        let function_like = rest
            .first()
            .is_some_and(|t| t.is_punct(Punct::LParen) && !t.space_before);
        if !function_like {
            self.macros.insert(
                name,
                MacroDef::Object {
                    body: rest.to_vec(),
                },
            );
            return Ok(());
        }
        let mut params = Vec::new();
        let mut variadic = false;
        let mut i = 1; // after `(`
        if rest.get(i).is_some_and(|t| t.is_punct(Punct::RParen)) {
            i += 1;
        } else {
            loop {
                match rest.get(i) {
                    Some(t) if t.is_punct(Punct::Ellipsis) => {
                        variadic = true;
                        i += 1;
                    }
                    Some(t) => {
                        let p = t
                            .kind
                            .ident()
                            .ok_or_else(|| CError::pp("expected macro parameter name", t.loc))?;
                        params.push(p);
                        i += 1;
                    }
                    None => return Err(CError::pp("unterminated macro parameter list", loc)),
                }
                match rest.get(i) {
                    Some(t) if t.is_punct(Punct::Comma) && !variadic => i += 1,
                    Some(t) if t.is_punct(Punct::RParen) => {
                        i += 1;
                        break;
                    }
                    _ => {
                        return Err(CError::pp(
                            "expected `,` or `)` in macro parameter list",
                            loc,
                        ))
                    }
                }
            }
        }
        let body = rest[i..].to_vec();
        self.macros.insert(
            name,
            MacroDef::Function {
                params,
                variadic,
                body,
            },
        );
        Ok(())
    }

    fn include(&mut self, args: &[Token], loc: Loc, cur_path: &str, depth: usize) -> Result<()> {
        // Two spellings: #include "path" and #include <path>. A macro that
        // expands to one of these forms is also accepted.
        let toks: Vec<Token>;
        let args = if args.first().is_some_and(|t| t.kind.is_ident()) {
            toks = self.expand_args(args)?;
            &toks[..]
        } else {
            args
        };
        let (path, angled) = match args.first().map(|t| t.kind) {
            Some(TokenKind::Str(s)) => (self.interner.resolve(s).to_string(), false),
            Some(TokenKind::Punct(Punct::Lt)) => {
                let mut s = String::new();
                for t in &args[1..] {
                    if t.is_punct(Punct::Gt) {
                        break;
                    }
                    s.push_str(&spell(t, &self.interner));
                }
                if !args.iter().any(|t| t.is_punct(Punct::Gt)) {
                    return Err(CError::pp("unterminated <...> include", loc));
                }
                (s, true)
            }
            _ => return Err(CError::pp("malformed #include", loc)),
        };
        // Resolution order: quoted tries the includer's directory first,
        // then the include path; angled tries only the include path (plus
        // the bare name, so absolute/virtual paths work).
        let mut candidates = Vec::new();
        if !angled {
            candidates.push(join_path(dir_of(cur_path), &path));
        }
        for dir in &self.opts.include_dirs {
            candidates.push(join_path(dir, &path));
        }
        candidates.push(normalize_path(&path));
        for cand in candidates {
            match self.fs.read(&cand) {
                Some(src) => return self.process_file(&cand, src, loc, depth + 1),
                None => self.missing.push(cand),
            }
        }
        Err(CError::pp(format!("include file not found: `{path}`"), loc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)], opts: PpOptions) -> Result<Preprocessed> {
        let mut fs = MemoryFs::new();
        for (p, c) in files {
            fs.add(*p, *c);
        }
        preprocess(&fs, files[0].0, &opts)
    }

    fn text(p: &Preprocessed) -> String {
        let spelled: Vec<String> = p
            .tokens
            .iter()
            .map(|t| spell(t, p.tokens.interner()))
            .collect();
        spelled.join(" ")
    }

    #[test]
    fn passthrough() {
        let p = run(&[("a.c", "int x = 1;\n")], PpOptions::default()).unwrap();
        assert_eq!(text(&p), "int x = 1 ;");
        assert_eq!(p.stats.files_read, 1);
    }

    #[test]
    fn object_and_function_macros() {
        let src = "#define N 10\n#define SQ(x) ((x)*(x))\nint a = SQ(N);\n";
        let p = run(&[("a.c", src)], PpOptions::default()).unwrap();
        assert_eq!(text(&p), "int a = ( ( 10 ) * ( 10 ) ) ;");
        assert!(p.stats.macro_expansions >= 2);
    }

    #[test]
    fn include_and_guard() {
        let h = "#ifndef H\n#define H\nint from_header;\n#endif\n";
        let c = "#include \"h.h\"\n#include \"h.h\"\nint main_var;\n";
        let p = run(&[("a.c", c), ("h.h", h)], PpOptions::default()).unwrap();
        assert_eq!(text(&p), "int from_header ; int main_var ;");
        assert_eq!(p.stats.files_read, 3);
    }

    #[test]
    fn include_relative_to_includer() {
        let files = [
            ("src/a.c", "#include \"sub/x.h\"\n"),
            ("src/sub/x.h", "#include \"y.h\"\n"),
            ("src/sub/y.h", "int deep;\n"),
        ];
        let p = run(&files, PpOptions::default()).unwrap();
        assert_eq!(text(&p), "int deep ;");
    }

    #[test]
    fn angled_include_uses_include_dirs() {
        let files = [
            ("a.c", "#include <lib.h>\nint b;\n"),
            ("inc/lib.h", "int a;\n"),
        ];
        let p = run(&files, PpOptions::default().include_dir("inc")).unwrap();
        assert_eq!(text(&p), "int a ; int b ;");
        assert!(run(&files, PpOptions::default()).is_err());
    }

    #[test]
    fn missing_include_probes_are_recorded_in_probe_order() {
        let files = [
            ("src/a.c", "#include \"h.h\"\n#include <h.h>\n"),
            ("b/h.h", "int h;\n"),
        ];
        let opts = PpOptions::default().include_dir("a").include_dir("b");
        let p = run(&files, opts).unwrap();
        assert_eq!(p.missing, ["src/h.h", "a/h.h", "a/h.h"]);
        let found = run(
            &[("a.c", "#include \"h.h\"\n"), ("h.h", "")],
            PpOptions::default(),
        );
        assert!(found.unwrap().missing.is_empty());
    }

    #[test]
    fn conditionals() {
        let src = "#if FOO\nint yes;\n#else\nint no;\n#endif\n";
        let p = run(&[("a.c", src)], PpOptions::default().define("FOO", "1")).unwrap();
        assert_eq!(text(&p), "int yes ;");
        let p = run(&[("a.c", src)], PpOptions::default()).unwrap();
        assert_eq!(text(&p), "int no ;");
    }

    #[test]
    fn elif_chain() {
        let src = "#if A\nint a;\n#elif B\nint b;\n#elif C\nint c;\n#else\nint d;\n#endif\n";
        let p = run(&[("x.c", src)], PpOptions::default().define("B", "1")).unwrap();
        assert_eq!(text(&p), "int b ;");
        let p = run(&[("x.c", src)], PpOptions::default().define("C", "1")).unwrap();
        assert_eq!(text(&p), "int c ;");
        let p = run(&[("x.c", src)], PpOptions::default()).unwrap();
        assert_eq!(text(&p), "int d ;");
        // Only the first true branch is taken.
        let p = run(
            &[("x.c", src)],
            PpOptions::default().define("B", "1").define("C", "1"),
        )
        .unwrap();
        assert_eq!(text(&p), "int b ;");
    }

    #[test]
    fn nested_conditionals_in_skipped_region() {
        let src = "#if 0\n#if 1\nint skipped;\n#endif\n#else\nint kept;\n#endif\n";
        let p = run(&[("a.c", src)], PpOptions::default()).unwrap();
        assert_eq!(text(&p), "int kept ;");
    }

    #[test]
    fn undef() {
        let src = "#define X 1\n#undef X\n#ifdef X\nint yes;\n#endif\nint always;\n";
        let p = run(&[("a.c", src)], PpOptions::default()).unwrap();
        assert_eq!(text(&p), "int always ;");
    }

    #[test]
    fn error_directive() {
        let src = "#if 0\n#error never\n#endif\nint ok;\n";
        assert_eq!(
            text(&run(&[("a.c", src)], PpOptions::default()).unwrap()),
            "int ok ;"
        );
        let src = "#error boom here\n";
        let e = run(&[("a.c", src)], PpOptions::default()).unwrap_err();
        assert!(e.message().contains("boom here"));
    }

    #[test]
    fn missing_things_error() {
        assert!(run(&[("a.c", "#include \"nope.h\"\n")], PpOptions::default()).is_err());
        assert!(run(&[("a.c", "#if 1\nint x;\n")], PpOptions::default()).is_err());
        assert!(run(&[("a.c", "#endif\n")], PpOptions::default()).is_err());
        assert!(run(&[("a.c", "#else\n")], PpOptions::default()).is_err());
        assert!(run(&[("a.c", "#bogus\n")], PpOptions::default()).is_err());
        let mut fs = MemoryFs::new();
        fs.add("self.h", "#include \"self.h\"\n");
        assert!(preprocess(&fs, "self.h", &PpOptions::default()).is_err());
    }

    #[test]
    fn include_cycle_is_a_typed_error() {
        // Indirect cycle: b.h -> c.h -> b.h.
        let files = [
            ("a.c", "#include \"b.h\"\n"),
            ("b.h", "#include \"c.h\"\n"),
            ("c.h", "#include \"b.h\"\n"),
        ];
        let e = run(&files, PpOptions::default()).unwrap_err();
        assert!(matches!(e, CError::IncludeCycle { .. }), "{e}");
        assert!(e.message().contains("b.h"), "{e}");
        // Direct self-include is the degenerate cycle.
        let e = run(&[("self.h", "#include \"self.h\"\n")], PpOptions::default()).unwrap_err();
        assert!(matches!(e, CError::IncludeCycle { .. }), "{e}");
        // A diamond (two paths to the same header, sequentially) is not.
        let files = [
            ("a.c", "#include \"b.h\"\n#include \"c.h\"\n"),
            ("b.h", "#include \"d.h\"\n"),
            ("c.h", "#include \"d.h\"\n"),
            ("d.h", "int d_var;\n"),
        ];
        assert!(run(&files, PpOptions::default()).is_ok());
    }

    #[test]
    fn include_depth_overflow_is_a_budget_error() {
        let mut fs = MemoryFs::new();
        for i in 0..6 {
            fs.add(format!("f{i}.h"), format!("#include \"f{}.h\"\n", i + 1));
        }
        fs.add("f6.h", "int deep;\n");
        let opts = PpOptions {
            max_include_depth: 3,
            ..PpOptions::default()
        };
        let e = preprocess(&fs, "f0.h", &opts).unwrap_err();
        assert!(e.is_budget(), "{e}");
    }

    #[test]
    fn macro_fuel_stops_expansion_bombs() {
        // Each level expands to eight copies of the previous one: the full
        // expansion is ~8^8 invocations, far over the test budget.
        let mut src = String::from("#define A0 x\n");
        for i in 1..9 {
            let p = i - 1;
            src.push_str(&format!(
                "#define A{i} A{p} A{p} A{p} A{p} A{p} A{p} A{p} A{p}\n"
            ));
        }
        src.push_str("int A8;\n");
        let mut opts = PpOptions::default();
        opts.limits.macro_fuel = 10_000;
        let e = run(&[("bomb.c", src.as_str())], opts).unwrap_err();
        assert!(e.is_budget(), "{e}");
    }

    #[test]
    fn token_cap_bounds_output() {
        let src = "#define ROW int a; int b; int c; int d;\n".to_string() + &"ROW\n".repeat(200);
        let mut opts = PpOptions::default();
        opts.limits.max_tokens = 100;
        let e = run(&[("big.c", src.as_str())], opts).unwrap_err();
        assert!(e.is_budget(), "{e}");
        // Unlimited (0) accepts the same input.
        let mut opts = PpOptions::default();
        opts.limits.max_tokens = 0;
        assert!(run(&[("big.c", src.as_str())], opts).is_ok());
    }

    #[test]
    fn limit_helpers() {
        let limits = FrontendLimits {
            max_parser_depth: 0,
            deadline_ms: 0,
            ..FrontendLimits::default()
        };
        assert_eq!(limits.parser_depth(), 64);
        assert!(limits.deadline_from_now().is_none());
        let limits = FrontendLimits {
            max_parser_depth: 7,
            deadline_ms: 1000,
            ..FrontendLimits::default()
        };
        assert_eq!(limits.parser_depth(), 7);
        assert!(limits.deadline_from_now().is_some());
    }

    #[test]
    fn pragma_and_null_directive_ignored() {
        let src = "#pragma once\n#\nint x;\nint y;\n";
        let p = run(&[("a.c", src)], PpOptions::default()).unwrap();
        assert_eq!(text(&p), "int x ; int y ;");
    }

    #[test]
    fn line_directive_remaps_locations() {
        let src = "int a;\n#line 100 \"gen.y\"\nint b;\nint c;\n#line 7\nint d;\n";
        let p = run(&[("a.c", src)], PpOptions::default()).unwrap();
        assert_eq!(text(&p), "int a ; int b ; int c ; int d ;");
        let find = |name: &str| {
            p.tokens
                .iter()
                .find(|t| p.tokens.is_ident(t, name))
                .map(|t| (p.sources.file_name(t.loc.file).to_string(), t.loc.line))
                .unwrap()
        };
        assert_eq!(find("a"), ("a.c".to_string(), 1));
        assert_eq!(find("b"), ("gen.y".to_string(), 100));
        assert_eq!(find("c"), ("gen.y".to_string(), 101));
        assert_eq!(find("d"), ("gen.y".to_string(), 7));
    }

    #[test]
    fn line_directive_resets_per_file() {
        let files = [
            ("main.c", "#include \"gen.h\"\nint after;\n"),
            ("gen.h", "#line 500\nint inside;\n"),
        ];
        let p = run(&files, PpOptions::default()).unwrap();
        let find = |name: &str| {
            *p.tokens
                .iter()
                .find(|t| p.tokens.is_ident(t, name))
                .unwrap()
        };
        let after = find("after");
        assert_eq!(after.loc.line, 2, "the includer's numbering is unaffected");
        let inside = find("inside");
        assert_eq!(inside.loc.line, 500);
    }

    #[test]
    fn bad_line_directive_errors() {
        assert!(run(&[("a.c", "#line nope\n")], PpOptions::default()).is_err());
    }

    #[test]
    fn stats_counts() {
        let src = "#define A 1\nint x = A;\nint y = A;\n";
        let p = run(&[("a.c", src)], PpOptions::default()).unwrap();
        assert_eq!(p.stats.tokens_out, 10);
        assert_eq!(p.stats.macro_expansions, 2);
        assert_eq!(p.stats.lines_out, 2);
        assert_eq!(p.stats.bytes_in, src.len() as u64);
    }

    /// `lines_out` counts distinct `(file, line)` pairs of emitted tokens:
    /// across includes (a header included twice is two files), over logical
    /// lines that span physical ones, and not for lines that emit nothing.
    #[test]
    fn lines_out_counts_distinct_file_line_pairs() {
        let files = [
            (
                "a.c",
                "int a;\n#include \"h.h\"\nint b; /* spans\n lines */ int c;\n\n#if 0\nint no;\n#endif\n\
                 #include \"h.h\"\nint d = \\\n 1;\nE\n",
            ),
            ("h.h", "int h1;\nint h2; int h3;\n"),
        ];
        let p = run(&files, PpOptions::default().define("E", "")).unwrap();
        // a.c: lines 1, 3, 4, 10, 11 (`E` on 12 emits nothing); h.h: 2 lines, twice.
        assert_eq!(p.stats.lines_out, 5 + 2 + 2);
        assert_eq!(p.stats.files_read, 3);
    }

    /// `#line` can map two physical lines to one presumed line, make a
    /// presumed line collide with a real one of the same file, or clamp
    /// several to line 1; each pair still counts once, whether the lines
    /// were emitted before the first `#line` or after a remap ended.
    #[test]
    fn lines_out_is_exact_under_line_remapping() {
        let count = |src: &str| {
            run(&[("a.c", src)], PpOptions::default())
                .unwrap()
                .stats
                .lines_out
        };
        // Two physical lines presumed to be line 50.
        assert_eq!(count("int a;\n#line 50\nint b;\n#line 50\nint c;\n"), 2);
        // Presumed line 1 of the same file is the real line 1 again.
        assert_eq!(count("int a;\nint b;\n#line 1\nint c;\nint d;\n"), 2);
        // `#line 0`: the next two lines both clamp to 1, which line 1 was.
        assert_eq!(count("int a;\n#line 0\nint b;\nint c;\nint d;\n"), 2);
        // A remap that ends (`#line` naming the real next line) leaves real
        // lines that an earlier presumed line already claimed.
        assert_eq!(
            count("#line 6\nint a;\n#line 4\nint b;\nint c;\nint d;\n"),
            3
        );
        // Each `#line N "f"` presumes a file of its own, as `add_file` does.
        assert_eq!(
            count("#line 7 \"g.y\"\nint a;\n#line 7 \"g.y\"\nint b;\n#line 7\nint c;\n"),
            2
        );
        // The includer keeps counting by adjacency around a remapped header.
        let files = [
            ("m.c", "int a;\n#include \"g.h\"\nint b;\nint c;\n"),
            ("g.h", "int g;\n#line 1\nint h;\n#line 1 \"m.c\"\nint i;\n"),
        ];
        let p = run(&files, PpOptions::default()).unwrap();
        assert_eq!(p.stats.lines_out, 3 + 2);
    }

    /// The fast lane decides per line and per identifier, against the macro
    /// table as it stands at that line.
    #[test]
    fn defines_take_effect_from_their_line_on() {
        let src = "int later = 1;\nint x = later;\n#define later 7\nint y = later;\n\
                   #undef later\nint z = later;\n#define F(a) a + later\nint w = F(2);\n\
                   #define later 9\nint v = F(later);\n";
        let p = run(&[("a.c", src)], PpOptions::default()).unwrap();
        assert_eq!(
            text(&p),
            "int later = 1 ; int x = later ; int y = 7 ; int z = later ; \
             int w = 2 + later ; int v = 9 + 9 ;"
        );
        assert_eq!(p.stats.macro_expansions, 1 + 1 + 3);
        // A predefined macro is live from the first line.
        let p = run(
            &[("a.c", "int a = N;\n#undef N\nint b = N;\n")],
            PpOptions::default().define("N", "3"),
        )
        .unwrap();
        assert_eq!(text(&p), "int a = 3 ; int b = N ;");
    }

    #[test]
    fn header_closing_its_includers_conditional_is_a_typed_error() {
        let files = [
            ("a.c", "#if 1\n#include \"h.h\"\nint a;\n"),
            ("h.h", "#endif\n"),
        ];
        let e = run(&files, PpOptions::default()).unwrap_err();
        assert!(matches!(e, CError::Pp { .. }), "{e}");
        assert!(e.message().contains("h.h"), "{e}");
        assert_eq!(e.loc().line, 2);
    }

    #[test]
    fn macro_locations_point_at_invocation() {
        let src = "#define M 42\nint x = M;\n";
        let p = run(&[("a.c", src)], PpOptions::default()).unwrap();
        let forty_two = p
            .tokens
            .iter()
            .find(|t| matches!(t.kind, TokenKind::Int(42, _)))
            .unwrap();
        assert_eq!(forty_two.loc.line, 2);
    }
}
