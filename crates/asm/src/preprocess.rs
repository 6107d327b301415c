//! The assembler preprocessor.
//!
//! This is the machinery the ADVM abstraction layer rides on:
//!
//! * `.INCLUDE Globals.inc` — pulls the abstraction layer into a test,
//! * `NAME .EQU expr` — assembly-time constants, evaluated eagerly so that
//!   conditional assembly can branch on them,
//! * `.DEFINE NAME tokens` — textual aliases (the paper's
//!   `.DEFINE CallAddr A12`),
//! * `.MACRO` / `.ENDM` — parameterised code templates for base functions,
//! * `.IF expr` / `.IFDEF` / `.IFNDEF` / `.ELSE` / `.ENDIF` — the
//!   mechanism by which one test adapts to derivative and platform
//!   (`.IF WDT_DISABLE == 0` style control comes from globals values),
//! * `.ERROR "msg"` — guard rails inside the abstraction layer.
//!
//! Identifiers beginning with `LOCAL_` inside a macro body are made unique
//! per expansion, so macros can define labels safely.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use crate::diag::AsmError;
use crate::expr;
use crate::lexer::{tokenize, Token};
use crate::source::{Loc, SourceSet};

/// Maximum `.INCLUDE` nesting depth.
const MAX_INCLUDE_DEPTH: usize = 32;
/// Maximum macro expansion nesting depth.
const MAX_MACRO_DEPTH: usize = 64;

/// One classified line of a tokenized source file (see [`tokenized`]).
enum CachedLine {
    /// Nothing but whitespace/comment.
    Empty,
    /// Text-level `.INCLUDE` line — handled from the raw text.
    Include,
    /// Tokens, exactly as `tokenize` would produce them.
    Tokens(Vec<Token>),
    /// The line does not lex; re-tokenize on demand for a located error.
    Bad,
}

struct TokenizedFile {
    lines: Vec<CachedLine>,
}

/// Upper bound on cached files; the map is cleared when it fills so a
/// pathological stream of unique sources cannot grow memory unboundedly.
const TOKEN_CACHE_CAP: usize = 512;

type TokenCache = HashMap<u64, Vec<(String, Arc<TokenizedFile>)>>;

fn token_cache() -> &'static Mutex<TokenCache> {
    static CACHE: OnceLock<Mutex<TokenCache>> = OnceLock::new();
    CACHE.get_or_init(Mutex::default)
}

/// Matches the text-level `.INCLUDE` detection in `process_file`
/// (case-insensitive prefix of the trimmed line).
fn is_include_line(raw: &str) -> bool {
    raw.trim()
        .as_bytes()
        .get(..8)
        .is_some_and(|p| p.eq_ignore_ascii_case(b".INCLUDE"))
}

fn tokenize_file(text: &str) -> TokenizedFile {
    let probe = Loc::new("<cache>", 0);
    let lines = text
        .lines()
        .map(|raw| {
            if is_include_line(raw) {
                return CachedLine::Include;
            }
            match tokenize(raw, &probe) {
                Ok(t) if t.is_empty() => CachedLine::Empty,
                Ok(t) => CachedLine::Tokens(t),
                Err(_) => CachedLine::Bad,
            }
        })
        .collect();
    TokenizedFile { lines }
}

/// Returns the tokenized form of `text`, caching by content so the files
/// shared across every campaign build unit (vector table, trap handlers,
/// base functions) are lexed once per process instead of once per unit.
fn tokenized(text: &str) -> Arc<TokenizedFile> {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut hasher);
    let key = hasher.finish();
    let mut cache = token_cache().lock().expect("token cache lock");
    if let Some(bucket) = cache.get(&key) {
        if let Some((_, file)) = bucket.iter().find(|(content, _)| content == text) {
            return Arc::clone(file);
        }
    }
    let file = Arc::new(tokenize_file(text));
    if cache.len() >= TOKEN_CACHE_CAP {
        cache.clear();
    }
    cache
        .entry(key)
        .or_default()
        .push((text.to_owned(), Arc::clone(&file)));
    file
}

/// One preprocessed logical line, ready for the assembler proper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalLine {
    /// The line's tokens (aliases substituted, macros expanded).
    pub tokens: Vec<Token>,
    /// Where the line came from (macro-expanded lines keep the body's
    /// location).
    pub loc: Loc,
}

/// The preprocessor's result.
#[derive(Debug, Clone, Default)]
pub struct Preprocessed {
    /// Assembler-visible lines in order.
    pub lines: Vec<LogicalLine>,
    /// `.EQU` constants in definition order.
    pub equs: Vec<(String, i64)>,
    /// Files pulled in by `.INCLUDE`, in first-include order (the
    /// violation checker in the methodology crate inspects this).
    pub includes: Vec<String>,
}

impl Preprocessed {
    /// Looks up an `.EQU` constant.
    pub fn equ(&self, name: &str) -> Option<i64> {
        self.equs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

struct Macro {
    params: Vec<String>,
    body: Vec<(Vec<Token>, Loc)>,
}

/// A name table split at a [`Prelude`](crate::Prelude) boundary: the
/// prelude's entries are shared behind an `Arc`, names defined after the
/// split go to a local overlay. A plain preprocess only uses the overlay.
struct Scope<V> {
    shared: Arc<HashMap<String, V>>,
    local: HashMap<String, V>,
}

impl<V> Default for Scope<V> {
    fn default() -> Self {
        Self {
            shared: Arc::default(),
            local: HashMap::new(),
        }
    }
}

impl<V> Scope<V> {
    fn get(&self, name: &str) -> Option<&V> {
        self.local.get(name).or_else(|| self.shared.get(name))
    }

    fn contains_key(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn is_empty(&self) -> bool {
        self.local.is_empty() && self.shared.is_empty()
    }

    /// Defines (or, for aliases, redefines) `name` in the local half.
    fn insert(&mut self, name: String, value: V) {
        self.local.insert(name, value);
    }

    /// Moves every definition into a shared half that resumed scopes
    /// borrow (see [`Scope::resumed`]).
    fn freeze(self) -> Self {
        debug_assert!(self.shared.is_empty(), "a prelude starts from empty scopes");
        Self {
            shared: Arc::new(self.local),
            local: HashMap::new(),
        }
    }

    fn resumed(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
            local: HashMap::new(),
        }
    }
}

#[derive(Clone)]
struct CondFrame {
    /// Whether the current branch emits lines.
    active: bool,
    /// Whether any branch of this conditional has been taken.
    taken: bool,
    /// Whether `.ELSE` has been seen.
    seen_else: bool,
}

struct Preprocessor<'a> {
    sources: &'a SourceSet,
    /// One file served ahead of `sources`: a resumed prelude's test.
    overlay: Option<(&'a str, &'a str)>,
    /// While a prelude is built: the file it must not depend on.
    held: Option<&'a str>,
    /// Whether the run tried to include `held`.
    touched_held: bool,
    out: Preprocessed,
    st: State,
}

/// What the preprocessor carries from line to line: the part a prelude
/// keeps at its split point and every resumption continues from.
#[derive(Default)]
struct State {
    equs: Scope<i64>,
    aliases: Scope<Vec<Token>>,
    macros: Scope<Macro>,
    conds: Vec<CondFrame>,
    include_stack: Vec<String>,
    completed_includes: Vec<String>,
    expansions: u64,
}

impl State {
    /// Moves every definition into the shared halves of its scopes.
    fn freeze(self) -> Self {
        Self {
            equs: self.equs.freeze(),
            aliases: self.aliases.freeze(),
            macros: self.macros.freeze(),
            ..self
        }
    }

    /// A copy to resume from, sharing the frozen definitions.
    fn resumed(&self) -> Self {
        Self {
            equs: self.equs.resumed(),
            aliases: self.aliases.resumed(),
            macros: self.macros.resumed(),
            conds: self.conds.clone(),
            include_stack: self.include_stack.clone(),
            completed_includes: self.completed_includes.clone(),
            expansions: self.expansions,
        }
    }
}

/// Runs the preprocessor over `entry` (and everything it includes).
///
/// # Errors
///
/// Returns the first error encountered: missing include, malformed
/// directive, unbalanced conditionals, duplicate `.EQU`, macro problems or
/// a triggered `.ERROR`.
pub fn preprocess(entry: &str, sources: &SourceSet) -> Result<Preprocessed, AsmError> {
    preprocess_with(entry, sources, None)
}

/// [`preprocess`] with `overlay` (a `(name, text)` file) served ahead of
/// `sources`.
pub(crate) fn preprocess_with(
    entry: &str,
    sources: &SourceSet,
    overlay: Option<(&str, &str)>,
) -> Result<Preprocessed, AsmError> {
    let mut pp = Preprocessor::new(sources, overlay, None, State::default());
    pp.process_file(entry, None)?;
    pp.finish(entry)
}

/// The preprocessor's state at a prelude's split point: everything a
/// resumed run needs to continue the entry file where the prelude
/// stopped.
pub(crate) struct SplitState {
    entry: String,
    resume_at: usize,
    state: State,
}

/// Why [`preprocess_until`] stopped short of the split point.
pub(crate) enum NoSplit {
    /// Preprocessing failed before the split point. The failure cannot
    /// depend on the held file, so every resumption fails the same way.
    Failed(AsmError),
    /// Something before the split point includes the held file, so the
    /// prelude depends on it and cannot be shared.
    Dependent,
}

/// Preprocesses `entry` up to (not including) its final `.INCLUDE held`
/// line, without reading `held`: the lines and constants so far, and
/// the state to resume from.
pub(crate) fn preprocess_until(
    entry: &str,
    sources: &SourceSet,
    held: &str,
) -> Result<(Preprocessed, SplitState), NoSplit> {
    let stop = sources.get(entry).map_or(0, |text| {
        text.lines()
            .enumerate()
            .filter(|(_, raw)| is_include_line(raw) && include_path(raw) == held)
            .map(|(i, _)| i)
            .last()
            .unwrap_or(usize::MAX)
    });
    let mut pp = Preprocessor::new(sources, None, Some(held), State::default());
    let resume_at = match pp.open(entry, None) {
        Ok(text) => {
            let text = text.expect("nothing completes before the entry opens");
            pp.process_lines(entry, text, 0, stop)
        }
        Err(e) => Err(e),
    };
    match resume_at {
        Err(_) if pp.touched_held => Err(NoSplit::Dependent),
        Err(e) => Err(NoSplit::Failed(e)),
        Ok(resume_at) => Ok((
            pp.out,
            SplitState {
                entry: entry.to_owned(),
                resume_at,
                state: pp.st.freeze(),
            },
        )),
    }
}

/// Continues a split entry with `held` (a `(name, text)` file) available,
/// returning only what was produced after the split point.
pub(crate) fn resume(
    split: &SplitState,
    sources: &SourceSet,
    held: (&str, &str),
) -> Result<Preprocessed, AsmError> {
    let mut pp = Preprocessor::new(sources, Some(held), None, split.state.resumed());
    let text = pp
        .source(&split.entry)
        .expect("a split entry was read before");
    pp.process_lines(&split.entry, text, split.resume_at, usize::MAX)?;
    pp.close(&split.entry);
    pp.finish(&split.entry)
}

/// The file named by a text-level `.INCLUDE` line (see
/// [`is_include_line`]); empty when the line names none.
fn include_path(raw: &str) -> &str {
    let path = raw.trim()[".INCLUDE".len()..].trim();
    let path = path.split(';').next().unwrap_or("").trim();
    path.trim_matches('"').trim()
}

impl<'a> Preprocessor<'a> {
    fn new(
        sources: &'a SourceSet,
        overlay: Option<(&'a str, &'a str)>,
        held: Option<&'a str>,
        st: State,
    ) -> Self {
        Self {
            sources,
            overlay,
            held,
            touched_held: false,
            out: Preprocessed::default(),
            st,
        }
    }

    fn source(&self, name: &str) -> Option<&'a str> {
        match self.overlay {
            Some((file, text)) if file == name => Some(text),
            _ => self.sources.get(name),
        }
    }

    /// Rejects a conditional left open at the end of `entry`.
    fn finish(self, entry: &str) -> Result<Preprocessed, AsmError> {
        if !self.st.conds.is_empty() {
            return Err(AsmError::general(format!(
                "unterminated conditional at end of `{entry}` (missing .ENDIF)"
            )));
        }
        Ok(self.out)
    }

    fn active(&self) -> bool {
        self.st.conds.iter().all(|c| c.active)
    }

    fn process_file(&mut self, name: &str, from: Option<&Loc>) -> Result<(), AsmError> {
        if let Some(text) = self.open(name, from)? {
            self.process_lines(name, text, 0, usize::MAX)?;
            self.close(name);
        }
        Ok(())
    }

    /// Enters `name`: returns its text to process, or `None` when an
    /// earlier include already completed it.
    fn open(&mut self, name: &str, from: Option<&Loc>) -> Result<Option<&'a str>, AsmError> {
        // Include-once semantics: a file that was fully processed earlier
        // is skipped, so `Globals.inc` can be included both by the unit
        // prologue and by each test (as the paper's listings do).
        if self.st.completed_includes.iter().any(|f| f == name) {
            if from.is_some() && self.active() {
                self.out.includes.push(name.to_owned());
            }
            return Ok(None);
        }
        if self.st.include_stack.iter().any(|f| f == name) {
            let loc = from.cloned().unwrap_or_else(|| Loc::new(name, 0));
            return Err(AsmError::at(
                loc,
                format!("include cycle: `{name}` is already being processed"),
            ));
        }
        if self.st.include_stack.len() >= MAX_INCLUDE_DEPTH {
            let loc = from.cloned().unwrap_or_else(|| Loc::new(name, 0));
            return Err(AsmError::at(loc, "include depth limit exceeded"));
        }
        if self.held == Some(name) {
            self.touched_held = true;
            return Err(AsmError::general(format!(
                "`{name}` is included before the split point"
            )));
        }
        let text = self.source(name).ok_or_else(|| match from {
            Some(loc) => AsmError::at(loc.clone(), format!("include file `{name}` not found")),
            None => AsmError::general(format!("entry file `{name}` not found")),
        })?;
        // Track every include (even repeats) for environment analysis.
        if from.is_some() && self.active() {
            self.out.includes.push(name.to_owned());
        }
        self.st.include_stack.push(name.to_owned());
        Ok(Some(text))
    }

    fn close(&mut self, name: &str) {
        self.st.include_stack.pop();
        self.st.completed_includes.push(name.to_owned());
    }

    /// Processes lines `start..` of file `name`, stopping before the
    /// first line at or past `stop`. Returns the index it stopped at (a
    /// macro definition may carry it past `stop`).
    fn process_lines(
        &mut self,
        name: &str,
        text: &str,
        start: usize,
        stop: usize,
    ) -> Result<usize, AsmError> {
        let cached = tokenized(text);
        let lines: Vec<&str> = text.lines().collect();
        // One shared file-name allocation; per-line `Loc`s bump it.
        let file: std::sync::Arc<str> = std::sync::Arc::from(name);
        let mut i = start;
        while i < lines.len() && i < stop {
            let loc = Loc::new(file.clone(), (i + 1) as u32);
            let raw = lines[i];
            let line = &cached.lines[i];
            i += 1;

            let tokens = match line {
                // `.INCLUDE path` is handled at text level: bare paths
                // like `Globals.inc` would not survive tokenization.
                CachedLine::Include => {
                    if !self.active() {
                        continue;
                    }
                    let path = include_path(raw);
                    if path.is_empty() {
                        return Err(AsmError::at(loc, ".INCLUDE requires a file name"));
                    }
                    self.process_file(path, Some(&loc))?;
                    continue;
                }
                CachedLine::Empty => continue,
                // Inside an inactive conditional branch, unlexable lines
                // are skipped: they may use another platform's syntax.
                CachedLine::Bad => {
                    if self.active() {
                        return Err(
                            tokenize(raw, &loc).expect_err("line classified Bad fails to lex")
                        );
                    }
                    continue;
                }
                CachedLine::Tokens(t) => t.clone(),
            };

            // Conditional directives are processed even when inactive so
            // nesting stays balanced.
            if let Some(Token::Directive(d)) = tokens.first() {
                match d.as_str() {
                    ".IF" | ".IFDEF" | ".IFNDEF" => {
                        let parent_active = self.active();
                        let cond = if parent_active {
                            self.eval_condition(d, &tokens[1..], &loc)?
                        } else {
                            false
                        };
                        self.st.conds.push(CondFrame {
                            active: parent_active && cond,
                            taken: cond,
                            seen_else: false,
                        });
                        continue;
                    }
                    ".ELSE" => {
                        let parent_active = self.st.conds.iter().rev().skip(1).all(|c| c.active);
                        let frame = self.st.conds.last_mut().ok_or_else(|| {
                            AsmError::at(loc.clone(), ".ELSE without matching .IF")
                        })?;
                        if frame.seen_else {
                            return Err(AsmError::at(loc, "duplicate .ELSE"));
                        }
                        frame.seen_else = true;
                        frame.active = parent_active && !frame.taken;
                        frame.taken = true;
                        continue;
                    }
                    ".ENDIF" => {
                        self.st.conds.pop().ok_or_else(|| {
                            AsmError::at(loc.clone(), ".ENDIF without matching .IF")
                        })?;
                        continue;
                    }
                    _ => {}
                }
            }

            if !self.active() {
                continue;
            }

            // Macro definition.
            if matches!(tokens.first(), Some(Token::Directive(d)) if d == ".MACRO") {
                let (name, params) = parse_macro_header(&tokens[1..], &loc)?;
                let mut body = Vec::new();
                let mut closed = false;
                while i < lines.len() {
                    let body_loc = Loc::new(file.clone(), (i + 1) as u32);
                    let body_tokens = match &cached.lines[i] {
                        CachedLine::Empty => Vec::new(),
                        CachedLine::Tokens(t) => t.clone(),
                        // `.INCLUDE`-shaped and unlexable body lines go
                        // through the lexer as before (for the body
                        // tokens or the located error, respectively).
                        _ => tokenize(lines[i], &body_loc)?,
                    };
                    i += 1;
                    if matches!(body_tokens.first(), Some(Token::Directive(d)) if d == ".ENDM") {
                        closed = true;
                        break;
                    }
                    if matches!(body_tokens.first(), Some(Token::Directive(d)) if d == ".MACRO") {
                        return Err(AsmError::at(
                            body_loc,
                            "nested .MACRO definitions are not supported",
                        ));
                    }
                    if !body_tokens.is_empty() {
                        body.push((body_tokens, body_loc));
                    }
                }
                if !closed {
                    return Err(AsmError::at(loc, format!("macro `{name}` has no .ENDM")));
                }
                if self.st.macros.contains_key(&name) {
                    return Err(AsmError::at(loc, format!("macro `{name}` redefined")));
                }
                self.st.macros.insert(name, Macro { params, body });
                continue;
            }

            self.process_line(tokens, loc, 0)?;
        }
        Ok(i)
    }

    /// Handles one active logical line: alias substitution, `.EQU`,
    /// `.DEFINE`, `.ERROR`, macro expansion, or pass-through.
    fn process_line(&mut self, tokens: Vec<Token>, loc: Loc, depth: usize) -> Result<(), AsmError> {
        if depth > MAX_MACRO_DEPTH {
            return Err(AsmError::at(loc, "macro expansion depth limit exceeded"));
        }

        // `.DEFINE NAME tokens` — recorded before substitution so the name
        // itself is not rewritten.
        if matches!(tokens.first(), Some(Token::Directive(d)) if d == ".DEFINE") {
            let name = match tokens.get(1) {
                Some(Token::Ident(n)) => n.clone(),
                _ => return Err(AsmError::at(loc, ".DEFINE requires a name")),
            };
            if tokens.len() < 3 {
                return Err(AsmError::at(
                    loc,
                    format!(".DEFINE {name} requires a replacement"),
                ));
            }
            if self.st.equs.contains_key(&name) {
                return Err(AsmError::at(
                    loc,
                    format!("`{name}` is already defined as an .EQU constant"),
                ));
            }
            let replacement: Vec<Token> = tokens[2..].to_vec();
            self.st.aliases.insert(name, replacement);
            return Ok(());
        }

        // `NAME .EQU expr` — the name is taken from the *raw* tokens so a
        // `.DEFINE` alias cannot silently rewrite it; only the expression
        // side gets alias substitution.
        if tokens.len() >= 2 && matches!(&tokens[1], Token::Directive(d) if d == ".EQU") {
            let name = match &tokens[0] {
                Token::Ident(n) => n.clone(),
                other => {
                    return Err(AsmError::at(
                        loc,
                        format!(".EQU name expected, found `{other}`"),
                    ))
                }
            };
            let expr_tokens = self.substitute_aliases(tokens[2..].to_vec());
            // Generated abstraction layers are almost entirely
            // `NAME .EQU <number>` lines; skip expression parsing then.
            let value = match expr_tokens.as_slice() {
                [Token::Number(n)] => *n,
                _ => self.eval_expr(&expr_tokens, &loc)?,
            };
            if self.st.aliases.contains_key(&name) {
                return Err(AsmError::at(
                    loc,
                    format!("`{name}` is already defined as a .DEFINE alias"),
                ));
            }
            if let Some(old) = self.st.equs.get(&name) {
                return Err(AsmError::at(
                    loc,
                    format!("symbol `{name}` redefined by .EQU (was {old}, now {value})"),
                ));
            }
            self.st.equs.insert(name.clone(), value);
            self.out.equs.push((name, value));
            return Ok(());
        }

        let tokens = self.substitute_aliases(tokens);

        // `.ERROR "message"`.
        if matches!(tokens.first(), Some(Token::Directive(d)) if d == ".ERROR") {
            let message = match tokens.get(1) {
                Some(Token::Str(s)) => s.clone(),
                _ => "(no message)".to_owned(),
            };
            return Err(AsmError::at(loc, format!(".ERROR: {message}")));
        }

        // Macro invocation: `NAME args` or `label: NAME args`.
        let (label_prefix, rest) = split_label(&tokens);
        if let Some(Token::Ident(head)) = rest.first() {
            if self.st.macros.contains_key(head) {
                if let Some(label) = label_prefix {
                    self.out.lines.push(LogicalLine {
                        tokens: vec![Token::Ident(label.to_owned()), Token::Punct(':')],
                        loc: loc.clone(),
                    });
                }
                let head = head.clone();
                let args = split_args(&rest[1..]);
                self.expand_macro(&head, args, &loc, depth)?;
                return Ok(());
            }
        }

        self.out.lines.push(LogicalLine { tokens, loc });
        Ok(())
    }

    fn expand_macro(
        &mut self,
        name: &str,
        args: Vec<Vec<Token>>,
        call_loc: &Loc,
        depth: usize,
    ) -> Result<(), AsmError> {
        self.st.expansions += 1;
        let uniq = self.st.expansions;
        let mac = self
            .st
            .macros
            .get(name)
            .expect("only defined macros expand");
        if args.len() != mac.params.len() {
            return Err(AsmError::at(
                call_loc.clone(),
                format!(
                    "macro `{name}` expects {} argument(s), got {}",
                    mac.params.len(),
                    args.len()
                ),
            ));
        }
        let bindings: HashMap<&str, &Vec<Token>> = mac
            .params
            .iter()
            .map(String::as_str)
            .zip(args.iter())
            .collect();
        let body: Vec<(Vec<Token>, Loc)> = mac
            .body
            .iter()
            .map(|(tokens, loc)| {
                let mut out = Vec::with_capacity(tokens.len());
                for t in tokens {
                    match t {
                        Token::Ident(id) if bindings.contains_key(id.as_str()) => {
                            out.extend(bindings[id.as_str()].iter().cloned());
                        }
                        Token::Ident(id) if id.starts_with("LOCAL_") => {
                            out.push(Token::Ident(format!("{id}__{uniq}")));
                        }
                        other => out.push(other.clone()),
                    }
                }
                (out, loc.clone())
            })
            .collect();
        for (tokens, loc) in body {
            self.process_line(tokens, loc, depth + 1)?;
        }
        Ok(())
    }

    fn substitute_aliases(&self, tokens: Vec<Token>) -> Vec<Token> {
        // Most lines reference no alias; skip the rebuild entirely then.
        if self.st.aliases.is_empty()
            || !tokens
                .iter()
                .any(|t| matches!(t, Token::Ident(id) if self.st.aliases.contains_key(id)))
        {
            return tokens;
        }
        let mut out = Vec::with_capacity(tokens.len());
        for t in tokens {
            match &t {
                Token::Ident(id) => match self.st.aliases.get(id) {
                    Some(replacement) => out.extend(replacement.iter().cloned()),
                    None => out.push(t),
                },
                _ => out.push(t),
            }
        }
        out
    }

    fn eval_expr(&self, tokens: &[Token], loc: &Loc) -> Result<i64, AsmError> {
        let expr = expr::parse_all(tokens, loc)?;
        expr::eval(&expr, loc, &|name| self.st.equs.get(name).copied())
    }

    fn eval_condition(
        &self,
        directive: &str,
        tokens: &[Token],
        loc: &Loc,
    ) -> Result<bool, AsmError> {
        match directive {
            ".IFDEF" | ".IFNDEF" => {
                let name = match tokens.first() {
                    Some(Token::Ident(n)) => n,
                    _ => {
                        return Err(AsmError::at(
                            loc.clone(),
                            format!("{directive} requires a symbol name"),
                        ))
                    }
                };
                let defined = self.st.equs.contains_key(name) || self.st.aliases.contains_key(name);
                Ok(if directive == ".IFDEF" {
                    defined
                } else {
                    !defined
                })
            }
            _ => Ok(self.eval_expr(tokens, loc)? != 0),
        }
    }
}

fn parse_macro_header(tokens: &[Token], loc: &Loc) -> Result<(String, Vec<String>), AsmError> {
    let name = match tokens.first() {
        Some(Token::Ident(n)) => n.clone(),
        _ => return Err(AsmError::at(loc.clone(), ".MACRO requires a name")),
    };
    let mut params = Vec::new();
    let mut rest = &tokens[1..];
    while !rest.is_empty() {
        match &rest[0] {
            Token::Ident(p) => params.push(p.clone()),
            other => {
                return Err(AsmError::at(
                    loc.clone(),
                    format!("macro parameter name expected, found `{other}`"),
                ))
            }
        }
        rest = &rest[1..];
        if let Some(first) = rest.first() {
            if first.is_punct(',') {
                rest = &rest[1..];
                continue;
            }
            return Err(AsmError::at(
                loc.clone(),
                "expected `,` between macro parameters",
            ));
        }
    }
    Ok((name, params))
}

/// Splits `label: rest` off a token line, if present.
fn split_label(tokens: &[Token]) -> (Option<&str>, &[Token]) {
    if tokens.len() >= 2 {
        if let (Token::Ident(name), true) = (&tokens[0], tokens[1].is_punct(':')) {
            return (Some(name), &tokens[2..]);
        }
    }
    (None, tokens)
}

/// Splits macro arguments at top-level commas (bracket/paren aware).
fn split_args(tokens: &[Token]) -> Vec<Vec<Token>> {
    if tokens.is_empty() {
        return Vec::new();
    }
    let mut args = Vec::new();
    let mut current = Vec::new();
    let mut depth = 0i32;
    for t in tokens {
        match t {
            Token::Punct('[') | Token::Punct('(') => {
                depth += 1;
                current.push(t.clone());
            }
            Token::Punct(']') | Token::Punct(')') => {
                depth -= 1;
                current.push(t.clone());
            }
            Token::Punct(',') if depth == 0 => {
                args.push(std::mem::take(&mut current));
            }
            _ => current.push(t.clone()),
        }
    }
    args.push(current);
    args
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(entry: &str, files: &[(&str, &str)]) -> Result<Preprocessed, AsmError> {
        let sources: SourceSet = files.iter().copied().collect();
        preprocess(entry, &sources)
    }

    fn line_texts(pre: &Preprocessed) -> Vec<String> {
        pre.lines
            .iter()
            .map(|l| {
                l.tokens
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    }

    #[test]
    fn include_pulls_globals() {
        let pre = run(
            "test.asm",
            &[
                (
                    "test.asm",
                    ".INCLUDE Globals.inc\nTEST_PAGE .EQU TEST1_TARGET_PAGE\n",
                ),
                ("Globals.inc", "TEST1_TARGET_PAGE .EQU 8\n"),
            ],
        )
        .unwrap();
        assert_eq!(pre.equ("TEST_PAGE"), Some(8));
        assert_eq!(pre.includes, vec!["Globals.inc".to_owned()]);
    }

    #[test]
    fn quoted_include_paths_work() {
        let pre = run(
            "t.asm",
            &[("t.asm", ".INCLUDE \"g.inc\"\n"), ("g.inc", "A .EQU 1\n")],
        )
        .unwrap();
        assert_eq!(pre.equ("A"), Some(1));
    }

    #[test]
    fn missing_include_is_located() {
        let err = run("t.asm", &[("t.asm", "\n.INCLUDE nope.inc\n")]).unwrap_err();
        assert_eq!(err.loc().unwrap().line, 2);
        assert!(err.to_string().contains("nope.inc"));
    }

    #[test]
    fn include_cycle_detected() {
        let err = run(
            "a.inc",
            &[("a.inc", ".INCLUDE b.inc\n"), ("b.inc", ".INCLUDE a.inc\n")],
        )
        .unwrap_err();
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn repeated_include_is_skipped() {
        // Include-once: both the unit prologue and the test include
        // Globals.inc; the second include must not redefine the EQUs.
        let pre = run(
            "unit.asm",
            &[
                ("unit.asm", ".INCLUDE g.inc\n.INCLUDE test.asm\n"),
                ("test.asm", ".INCLUDE g.inc\nNOP\n"),
                ("g.inc", "A .EQU 1\n"),
            ],
        )
        .unwrap();
        assert_eq!(pre.equ("A"), Some(1));
        assert_eq!(line_texts(&pre), vec!["NOP"]);
        // Both include events are still recorded for environment analysis.
        assert_eq!(
            pre.includes,
            vec![
                "g.inc".to_owned(),
                "test.asm".to_owned(),
                "g.inc".to_owned()
            ]
        );
    }

    #[test]
    fn equ_chain_evaluates_eagerly() {
        let pre = run(
            "t.asm",
            &[("t.asm", "A .EQU 4\nB .EQU A * 2\nMASK .EQU 1 << B\n")],
        )
        .unwrap();
        assert_eq!(pre.equ("MASK"), Some(256));
    }

    #[test]
    fn equ_redefinition_rejected() {
        let err = run("t.asm", &[("t.asm", "A .EQU 1\nA .EQU 2\n")]).unwrap_err();
        assert!(err.to_string().contains("redefined"));
    }

    #[test]
    fn define_alias_substitutes() {
        // The paper's `.DEFINE CallAddr A12` idiom.
        let pre = run(
            "t.asm",
            &[("t.asm", ".DEFINE CallAddr a12\nLOAD CallAddr, TARGET\n")],
        )
        .unwrap();
        assert_eq!(line_texts(&pre), vec!["LOAD a12 , TARGET"]);
    }

    #[test]
    fn define_and_equ_namespaces_collide_loudly() {
        assert!(run("t.asm", &[("t.asm", "A .EQU 1\n.DEFINE A d0\n")]).is_err());
        assert!(run("t.asm", &[("t.asm", ".DEFINE A d0\nA .EQU 1\n")]).is_err());
    }

    #[test]
    fn conditional_if_else() {
        let pre = run(
            "t.asm",
            &[(
                "t.asm",
                "FLAG .EQU 1\n.IF FLAG\nNOP\n.ELSE\nHALT #1\n.ENDIF\n",
            )],
        )
        .unwrap();
        assert_eq!(line_texts(&pre), vec!["NOP"]);
    }

    #[test]
    fn conditional_else_branch() {
        let pre = run(
            "t.asm",
            &[(
                "t.asm",
                "FLAG .EQU 0\n.IF FLAG\nNOP\n.ELSE\nHALT #1\n.ENDIF\n",
            )],
        )
        .unwrap();
        assert_eq!(line_texts(&pre), vec!["HALT # 1"]);
    }

    #[test]
    fn nested_conditionals() {
        let src = "\
A .EQU 1
B .EQU 0
.IF A
.IF B
NOP
.ELSE
HALT #2
.ENDIF
.ELSE
NOP
NOP
.ENDIF
";
        let pre = run("t.asm", &[("t.asm", src)]).unwrap();
        assert_eq!(line_texts(&pre), vec!["HALT # 2"]);
    }

    #[test]
    fn ifdef_checks_definition() {
        let pre = run(
            "t.asm",
            &[(
                "t.asm",
                "A .EQU 0\n.IFDEF A\nNOP\n.ENDIF\n.IFNDEF B\nHALT #0\n.ENDIF\n",
            )],
        )
        .unwrap();
        // `.IFDEF A` is true even though A == 0.
        assert_eq!(line_texts(&pre), vec!["NOP", "HALT # 0"]);
    }

    #[test]
    fn unbalanced_conditional_rejected() {
        assert!(run("t.asm", &[("t.asm", ".IF 1\nNOP\n")]).is_err());
        assert!(run("t.asm", &[("t.asm", ".ENDIF\n")]).is_err());
        assert!(run("t.asm", &[("t.asm", ".ELSE\n")]).is_err());
    }

    #[test]
    fn inactive_branch_tolerates_unlexable_lines() {
        let pre = run(
            "t.asm",
            &[("t.asm", ".IF 0\n@@@ not ours @@@\n.ENDIF\nNOP\n")],
        )
        .unwrap();
        assert_eq!(line_texts(&pre), vec!["NOP"]);
    }

    #[test]
    fn macro_expansion_with_args() {
        let src = "\
.MACRO WRITE_REG addr, value
LOAD d15, value
STORE [addr], d15
.ENDM
WRITE_REG 0x100, #7
";
        let pre = run("t.asm", &[("t.asm", src)]).unwrap();
        assert_eq!(
            line_texts(&pre),
            vec!["LOAD d15 , # 7", "STORE [ 256 ] , d15"]
        );
    }

    #[test]
    fn macro_local_labels_are_unique() {
        let src = "\
.MACRO SPIN n
LOCAL_loop:
ADDI d0, d0, #-1
JNE LOCAL_loop
.ENDM
SPIN 1
SPIN 2
";
        let pre = run("t.asm", &[("t.asm", src)]).unwrap();
        let texts = line_texts(&pre);
        let labels: Vec<&String> = texts.iter().filter(|t| t.contains(':')).collect();
        assert_eq!(labels.len(), 2);
        assert_ne!(labels[0], labels[1], "expansions must not share labels");
    }

    #[test]
    fn macro_argument_count_checked() {
        let src = ".MACRO M a, b\nNOP\n.ENDM\nM 1\n";
        let err = run("t.asm", &[("t.asm", src)]).unwrap_err();
        assert!(err.to_string().contains("expects 2 argument(s), got 1"));
    }

    #[test]
    fn macro_invocation_after_label() {
        let src = ".MACRO M\nNOP\n.ENDM\nstart: M\n";
        let pre = run("t.asm", &[("t.asm", src)]).unwrap();
        assert_eq!(line_texts(&pre), vec!["start :", "NOP"]);
    }

    #[test]
    fn nested_macro_invocation() {
        let src = "\
.MACRO INNER x
LOAD d0, x
.ENDM
.MACRO OUTER y
INNER y
.ENDM
OUTER #3
";
        let pre = run("t.asm", &[("t.asm", src)]).unwrap();
        assert_eq!(line_texts(&pre), vec!["LOAD d0 , # 3"]);
    }

    #[test]
    fn error_directive_fires() {
        let err = run(
            "t.asm",
            &[(
                "t.asm",
                ".IF 1\n.ERROR \"unsupported derivative\"\n.ENDIF\n",
            )],
        )
        .unwrap_err();
        assert!(err.to_string().contains("unsupported derivative"));
    }

    #[test]
    fn error_directive_skipped_when_inactive() {
        assert!(run(
            "t.asm",
            &[("t.asm", ".IF 0\n.ERROR \"nope\"\n.ENDIF\nNOP\n")]
        )
        .is_ok());
    }

    #[test]
    fn macro_args_with_brackets() {
        let src = "\
.MACRO LDW rd, mem
LOAD rd, mem
.ENDM
LDW d1, [a2 + 4]
";
        let pre = run("t.asm", &[("t.asm", src)]).unwrap();
        assert_eq!(line_texts(&pre), vec!["LOAD d1 , [ a2 + 4 ]"]);
    }
}
