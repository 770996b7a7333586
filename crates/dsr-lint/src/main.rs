//! `dsr-lint` — the workspace's protocol-invariant linter.
//!
//! A dependency-free static-analysis pass over the repository's Rust
//! sources, enforcing the project invariants that `rustc`/clippy cannot see:
//!
//! * **`sync-facade`** — no `std::sync::` / `std::thread::` references
//!   outside `crates/dsr-sync` and `shims/`. Every sync primitive must be
//!   imported through the `dsr-sync` facade so model builds
//!   (`--cfg dsr_model`) instrument it.
//! * **`lock-unwrap`** — no `.unwrap()` / `.expect(..)` on lock results
//!   (`.lock()`, `.wait(..)`, `.wait_timeout(..)`) or on calls returning
//!   `Result<_, TransportError>` in non-test library code. Lock poisoning
//!   is recovered through `dsr_sync::lock`/`wait` (see the documented
//!   policy in `dsr-sync`); transport errors are typed and must be
//!   propagated, not crashed on.
//! * **`wire-roundtrip`** — every named type with an `impl Wire for ..`
//!   must be mentioned in test code of its crate (a round-trip test), so
//!   no protocol message ships without serialization coverage.
//! * **`no-debug-macros`** — no `todo!(..)` / `dbg!(..)` in library code.
//! * **`unused-pub`** — every `pub fn` in the non-test code of
//!   `crates/*/src` has a caller: a whole-word mention of its name in any
//!   other `.rs` file under `crates/`, `src/`, `tests/`, `examples/` or
//!   `benchmark/`, or on a non-test line of its own file. A declaration
//!   (`fn name`) and a `pub use` re-export are not calls. `benchmark/` is
//!   read for callers only; no rule checks its code.
//!
//! Findings are machine-readable (`path:line: rule: message`, one per
//! line), and the process exits nonzero if any survive the allowlist.
//!
//! Documented exceptions live in `dsr-lint.allow` at the repository root:
//! one `rule path-substring [item]` entry per line (`#` comments allowed).
//! A finding is suppressed when its rule matches, its path contains the
//! substring and, if the entry names an item, its message names that
//! identifier too — so one `pub fn` can be excused without excusing the
//! rest of its file.
//!
//! Heuristics (deliberate, documented): strings and comments are stripped
//! with a character scanner before matching, so prose mentioning
//! `std::sync` never trips the lint; everything from the first
//! `#[cfg(test)]` line to end of file counts as test code (workspace
//! convention keeps the tests module last), and so does all of a file
//! named `tests.rs` (a tests module kept out of line); chained-call rules
//! match within a single line.

#![forbid(unsafe_code)]

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One reported violation.
struct Finding {
    path: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

/// A suppression from `dsr-lint.allow`.
struct Allow {
    rule: String,
    path_substring: String,
    item: Option<String>,
}

impl Allow {
    fn covers(&self, finding: &Finding) -> bool {
        self.rule == finding.rule
            && finding
                .path
                .display()
                .to_string()
                .contains(&self.path_substring)
            && self
                .item
                .as_deref()
                .is_none_or(|item| identifiers(&finding.message).contains(&item))
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root = PathBuf::from(".");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("dsr-lint: --root requires a directory argument");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                eprintln!("usage: dsr-lint [--root <repo-root>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("dsr-lint: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    let files = collect_rust_files(&root);
    if files.is_empty() {
        eprintln!("dsr-lint: no Rust sources found under {}", root.display());
        return ExitCode::from(2);
    }
    let allows = load_allowlist(&root.join("dsr-lint.allow"));

    let sources: Vec<SourceFile> = files.iter().map(|p| SourceFile::load(&root, p)).collect();
    let mut benchmark_files = Vec::new();
    walk(&root.join("benchmark"), &mut benchmark_files);
    let benchmark: Vec<SourceFile> = benchmark_files
        .iter()
        .map(|p| SourceFile::load(&root, p))
        .collect();
    let transport_methods = collect_transport_result_methods(&sources);

    let mut findings: Vec<Finding> = Vec::new();
    for source in &sources {
        check_sync_facade(source, &mut findings);
        check_lock_unwrap(source, &transport_methods, &mut findings);
        check_debug_macros(source, &mut findings);
    }
    check_wire_roundtrip(&sources, &mut findings);
    check_unused_pub(&sources, &benchmark, &mut findings);

    let mut reported = 0usize;
    for finding in &findings {
        if allows.iter().any(|a| a.covers(finding)) {
            continue;
        }
        println!(
            "{}:{}: {}: {}",
            finding.path.display(),
            finding.line,
            finding.rule,
            finding.message
        );
        reported += 1;
    }
    if reported > 0 {
        eprintln!("dsr-lint: {reported} finding(s)");
        ExitCode::FAILURE
    } else {
        eprintln!("dsr-lint: clean ({} files)", sources.len());
        ExitCode::SUCCESS
    }
}

// ---------------------------------------------------------------------------
// File collection and preprocessing
// ---------------------------------------------------------------------------

/// Rust sources under the workspace's code roots, skipping build output.
fn collect_rust_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        walk(&root.join(top), &mut files);
    }
    files.sort();
    files
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// A preprocessed source file: original lines for context plus a
/// comment/string-stripped shadow used for all matching.
struct SourceFile {
    /// Path relative to the lint root (stable output regardless of cwd).
    rel: PathBuf,
    /// Stripped lines (strings/comments blanked, line structure intact).
    code: Vec<String>,
    /// First line (1-based) of the `#[cfg(test)]` region, if any: line 1
    /// for a `tests.rs` (a `#[cfg(test)] mod tests;` kept out of line).
    test_region_start: Option<usize>,
}

impl SourceFile {
    fn load(root: &Path, path: &Path) -> SourceFile {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let stripped = strip_strings_and_comments(&text);
        let code: Vec<String> = stripped.lines().map(str::to_owned).collect();
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        let test_region_start = if rel.file_name().is_some_and(|name| name == "tests.rs") {
            Some(1)
        } else {
            code.iter()
                .position(|l| l.contains("#[cfg(test)]"))
                .map(|i| i + 1)
        };
        SourceFile {
            rel,
            code,
            test_region_start,
        }
    }

    fn rel_str(&self) -> String {
        self.rel.display().to_string()
    }

    /// True when `line` (1-based) is in the trailing `#[cfg(test)]` region.
    fn is_test_line(&self, line: usize) -> bool {
        self.test_region_start.is_some_and(|start| line >= start)
    }

    /// Library code: a file under some `src/` directory (crate sources as
    /// opposed to integration tests, examples or benches).
    fn is_library_file(&self) -> bool {
        self.rel.components().any(|c| c.as_os_str() == "src")
    }

    fn is_in(&self, prefix: &str) -> bool {
        self.rel_str().starts_with(prefix)
    }
}

/// Blanks out comments (line, nested block), string literals (plain and
/// raw) and char literals, preserving newlines so line numbers survive.
fn strip_strings_and_comments(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let next = bytes.get(i + 1).copied();
        match b {
            b'/' if next == Some(b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if next == Some(b'*') => {
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            out.push(b'\n');
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                out.push(b'"');
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            out.push(b'"');
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            out.push(b'\n');
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            b'r' if matches!(next, Some(b'"') | Some(b'#')) && is_raw_string_start(bytes, i) => {
                let (consumed, newlines) = skip_raw_string(bytes, i);
                out.push(b'"');
                out.extend(std::iter::repeat_n(b'\n', newlines));
                out.push(b'"');
                i += consumed;
            }
            b'\'' => {
                // Char literal vs lifetime: a literal closes with a quote
                // within a few chars ('x', '\n', '\u{1F600}').
                if let Some(len) = char_literal_len(bytes, i) {
                    out.push(b'\'');
                    out.push(b'\'');
                    i += len;
                } else {
                    out.push(b'\'');
                    i += 1;
                }
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let mut j = i + 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Returns (bytes consumed, newlines inside) for a raw string at `i`.
fn skip_raw_string(bytes: &[u8], i: usize) -> (usize, usize) {
    let mut j = i + 1;
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    let mut newlines = 0usize;
    while j < bytes.len() {
        if bytes[j] == b'\n' {
            newlines += 1;
        }
        if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut closing = 0usize;
            while closing < hashes && bytes.get(k) == Some(&b'#') {
                closing += 1;
                k += 1;
            }
            if closing == hashes {
                return (k - i, newlines);
            }
        }
        j += 1;
    }
    (bytes.len() - i, newlines)
}

/// Length of a char literal starting at `i`, or `None` for a lifetime.
fn char_literal_len(bytes: &[u8], i: usize) -> Option<usize> {
    let max = (i + 12).min(bytes.len());
    let mut j = i + 1;
    if bytes.get(j) == Some(&b'\\') {
        j += 2; // escape plus escaped char; \u{..} handled by the scan below
    }
    while j < max {
        match bytes[j] {
            b'\'' => return Some(j + 1 - i),
            b'\n' => return None,
            _ => j += 1,
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Rule: sync-facade
// ---------------------------------------------------------------------------

fn check_sync_facade(source: &SourceFile, findings: &mut Vec<Finding>) {
    if source.is_in("crates/dsr-sync") || source.is_in("shims") || source.is_in("crates/dsr-lint") {
        return;
    }
    for (idx, line) in source.code.iter().enumerate() {
        for needle in ["std::sync", "std::thread"] {
            if let Some(pos) = line.find(needle) {
                // `std::thread` must not also match e.g. `my_std::thread`.
                let prefixed = pos > 0 && line.as_bytes()[pos - 1].is_ascii_alphanumeric();
                let underscore = pos > 0 && line.as_bytes()[pos - 1] == b'_';
                if prefixed || underscore {
                    continue;
                }
                findings.push(Finding {
                    path: source.rel.clone(),
                    line: idx + 1,
                    rule: "sync-facade",
                    message: format!(
                        "references `{needle}` directly; import sync primitives \
                         through the dsr-sync facade so model builds instrument them"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: lock-unwrap
// ---------------------------------------------------------------------------

/// Method names declared to return `Result<_, TransportError>` anywhere in
/// the tree. Signature may span lines; the declaration scan joins each `fn`
/// line with its continuation up to the opening brace.
fn collect_transport_result_methods(sources: &[SourceFile]) -> BTreeSet<String> {
    let mut methods = BTreeSet::new();
    for source in sources {
        let lines = &source.code;
        for (idx, line) in lines.iter().enumerate() {
            let Some(fn_pos) = find_fn_decl(line) else {
                continue;
            };
            let name: String = line[fn_pos..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() {
                continue;
            }
            // Join the signature until its body opens (or a handful of
            // lines, whichever first).
            let mut signature = String::new();
            for l in lines.iter().skip(idx).take(8) {
                signature.push_str(l);
                signature.push(' ');
                if l.contains('{') || l.contains(';') {
                    break;
                }
            }
            if let Some(arrow) = signature.find("->") {
                let ret = &signature[arrow..];
                if ret.contains("TransportError") && ret.contains("Result<") {
                    methods.insert(name);
                }
            }
        }
    }
    methods
}

/// Position just past `fn ` in a function declaration, if this line has one.
fn find_fn_decl(line: &str) -> Option<usize> {
    let pos = line.find("fn ")?;
    // Require a word boundary before `fn` (start, space, or `(` for closures
    // is not a declaration we care about misreading — names still parse).
    if pos > 0 {
        let before = line.as_bytes()[pos - 1];
        if before.is_ascii_alphanumeric() || before == b'_' {
            return None;
        }
    }
    Some(pos + 3)
}

fn check_lock_unwrap(
    source: &SourceFile,
    transport_methods: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    if !source.is_library_file() || source.is_in("crates/dsr-lint") {
        return;
    }
    // dsr-sync's own helpers implement the recovery policy.
    if source.is_in("crates/dsr-sync") || source.is_in("shims") {
        return;
    }
    for (idx, line) in source.code.iter().enumerate() {
        let lineno = idx + 1;
        if source.is_test_line(lineno) {
            continue;
        }
        for lock_call in [".lock()", ".try_lock()", ".wait(", ".wait_timeout("] {
            if let Some(pos) = line.find(lock_call) {
                let rest = &line[pos..];
                // A condvar wait always passes the guard; `.wait()` with no
                // arguments is some other API (e.g. a completion handle).
                if lock_call == ".wait(" && rest.starts_with(".wait()") {
                    continue;
                }
                if rest.contains(".unwrap()") || rest.contains(".expect(") {
                    findings.push(Finding {
                        path: source.rel.clone(),
                        line: lineno,
                        rule: "lock-unwrap",
                        message: format!(
                            "unwraps a lock result (`{lock_call}..`); use \
                             dsr_sync::lock/wait (documented poison-recovery \
                             policy) instead"
                        ),
                    });
                    break;
                }
            }
        }
        for method in transport_methods {
            let call = format!(".{method}(");
            if let Some(pos) = line.find(call.as_str()) {
                let rest = &line[pos..];
                if rest.contains(".unwrap()") || rest.contains(".expect(") {
                    findings.push(Finding {
                        path: source.rel.clone(),
                        line: lineno,
                        rule: "lock-unwrap",
                        message: format!(
                            "unwraps `Result<_, TransportError>` from `{method}()` \
                             in non-test code; propagate the typed error instead"
                        ),
                    });
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: wire-roundtrip
// ---------------------------------------------------------------------------

fn check_wire_roundtrip(sources: &[SourceFile], findings: &mut Vec<Finding>) {
    // Collect (crate root, type name, file, line) for every named impl.
    let mut impls: Vec<(String, String, PathBuf, usize)> = Vec::new();
    for source in sources {
        let Some(crate_root) = crate_root_of(&source.rel_str()) else {
            continue;
        };
        for (idx, line) in source.code.iter().enumerate() {
            let Some(target) = wire_impl_target(line) else {
                continue;
            };
            // Generic containers and primitives are covered by the
            // primitive round-trip tests; named protocol types must each
            // be exercised explicitly.
            if matches!(
                target.as_str(),
                "u32" | "u64" | "bool" | "Vec" | "Option" | ""
            ) {
                continue;
            }
            impls.push((crate_root.clone(), target, source.rel.clone(), idx + 1));
        }
    }
    if impls.is_empty() {
        return;
    }

    for (crate_root, target, path, line) in impls {
        // Test corpus: `#[cfg(test)]` regions of library files in the same
        // crate, plus the crate's `tests/` directory, plus the workspace
        // top-level `tests/`.
        let covered = sources.iter().any(|s| {
            let in_crate_tests = s.rel_str().starts_with(&format!("{crate_root}/tests/"));
            let in_workspace_tests = s.rel_str().starts_with("tests/");
            let same_crate_lib = crate_root_of(&s.rel_str()).as_deref() == Some(&crate_root);
            s.code.iter().enumerate().any(|(i, l)| {
                if !l.contains(target.as_str()) {
                    return false;
                }
                in_crate_tests || in_workspace_tests || (same_crate_lib && s.is_test_line(i + 1))
            })
        });
        if !covered {
            findings.push(Finding {
                path,
                line,
                rule: "wire-roundtrip",
                message: format!(
                    "`{target}` implements Wire but is not named in any \
                     round-trip test of its crate"
                ),
            });
        }
    }
}

/// `crates/<name>` prefix of a path, if it is inside a workspace crate.
fn crate_root_of(rel: &str) -> Option<String> {
    let mut parts = rel.split('/');
    if parts.next()? != "crates" {
        return None;
    }
    Some(format!("crates/{}", parts.next()?))
}

/// Base identifier of the target type in an `impl .. Wire for <T>` line.
fn wire_impl_target(line: &str) -> Option<String> {
    let impl_pos = line.find("impl")?;
    let wire_pos = line.find(" Wire for ")?;
    if wire_pos < impl_pos {
        return None;
    }
    let target = line[wire_pos + " Wire for ".len()..].trim_start();
    let name: String = target
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    Some(name)
}

// ---------------------------------------------------------------------------
// Rule: no-debug-macros
// ---------------------------------------------------------------------------

fn check_debug_macros(source: &SourceFile, findings: &mut Vec<Finding>) {
    if !source.is_library_file() || source.is_in("crates/dsr-lint") {
        return;
    }
    for (idx, line) in source.code.iter().enumerate() {
        let lineno = idx + 1;
        if source.is_test_line(lineno) {
            continue;
        }
        for needle in ["todo!(", "dbg!("] {
            if let Some(pos) = line.find(needle) {
                let prefixed = pos > 0 && {
                    let b = line.as_bytes()[pos - 1];
                    b.is_ascii_alphanumeric() || b == b'_'
                };
                if prefixed {
                    continue;
                }
                findings.push(Finding {
                    path: source.rel.clone(),
                    line: lineno,
                    rule: "no-debug-macros",
                    message: format!("`{}..)` left in library code", &needle[..needle.len() - 1]),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: unused-pub
// ---------------------------------------------------------------------------

/// Flags every `pub fn` of the non-test code of `crates/*/src` whose name is
/// mentioned neither in another file of `sources` or `callers` nor on a
/// non-test line of its own file. `callers` (the `benchmark/` workspace) is
/// read for mentions only.
fn check_unused_pub(sources: &[SourceFile], callers: &[SourceFile], findings: &mut Vec<Finding>) {
    let per_file: Vec<FileMentions> = sources.iter().map(FileMentions::of).collect();
    let caller_files: Vec<FileMentions> = callers.iter().map(FileMentions::of).collect();
    let mut total: HashMap<&str, usize> = HashMap::new();
    for mentions in per_file.iter().chain(&caller_files) {
        for (name, count) in &mentions.all {
            *total.entry(name.as_str()).or_default() += count;
        }
    }
    for (source, mentions) in sources.iter().zip(&per_file) {
        if !source.is_in("crates/") || !source.is_library_file() {
            continue;
        }
        for (idx, line) in source.code.iter().enumerate() {
            if source.is_test_line(idx + 1) {
                continue;
            }
            let Some(name) = pub_fn_name(line) else {
                continue;
            };
            let count = |map: &HashMap<String, usize>| map.get(name).copied().unwrap_or(0);
            let elsewhere = total.get(name).copied().unwrap_or(0) - count(&mentions.all);
            if elsewhere == 0 && count(&mentions.non_test) == 0 {
                findings.push(Finding {
                    path: source.rel.clone(),
                    line: idx + 1,
                    rule: "unused-pub",
                    message: format!(
                        "`pub fn {name}` has no caller: no other file names it and \
                         no non-test line of this file does; delete it or make it \
                         a helper of the tests that need it"
                    ),
                });
            }
        }
    }
}

/// Whole-word identifier mentions of one file, declarations (`fn name`) and
/// `pub use` statements excluded: all of them, and those on non-test lines.
struct FileMentions {
    all: HashMap<String, usize>,
    non_test: HashMap<String, usize>,
}

impl FileMentions {
    fn of(source: &SourceFile) -> FileMentions {
        let mut mentions = FileMentions {
            all: HashMap::new(),
            non_test: HashMap::new(),
        };
        let mut in_pub_use = false;
        for (idx, line) in source.code.iter().enumerate() {
            let tokens = identifiers(line);
            in_pub_use |= tokens.starts_with(&["pub", "use"]);
            if in_pub_use {
                in_pub_use = !line.contains(';');
                continue;
            }
            let test = source.is_test_line(idx + 1);
            for (i, token) in tokens.iter().enumerate() {
                if i > 0 && tokens[i - 1] == "fn" {
                    continue;
                }
                *mentions.all.entry((*token).to_owned()).or_default() += 1;
                if !test {
                    *mentions.non_test.entry((*token).to_owned()).or_default() += 1;
                }
            }
        }
        mentions
    }
}

/// The identifiers of a stripped line, in order (number literals skipped).
fn identifiers(line: &str) -> Vec<&str> {
    let bytes = line.as_bytes();
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if !is_word(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_word(bytes[i]) {
            i += 1;
        }
        if !bytes[start].is_ascii_digit() {
            out.push(&line[start..i]);
        }
    }
    out
}

/// The name declared by a `pub fn` line (`pub`, then any of `const`,
/// `async`, `unsafe`, `extern`, then `fn`); `None` for restricted
/// visibility such as `pub(crate)`.
fn pub_fn_name(line: &str) -> Option<&str> {
    let tokens = identifiers(line);
    let start = tokens.iter().position(|t| *t == "pub")?;
    let mut rest = tokens[start + 1..].iter();
    loop {
        match *rest.next()? {
            "const" | "async" | "unsafe" | "extern" => continue,
            "fn" => return rest.next().copied(),
            _ => return None,
        }
    }
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

fn load_allowlist(path: &Path) -> Vec<Allow> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut fields = l.split_whitespace().map(str::to_owned);
            Some(Allow {
                rule: fields.next()?,
                path_substring: fields.next()?,
                item: fields.next(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_removes_comments_and_strings_keeps_lines() {
        let src = "let a = \"std::sync\"; // std::thread\n/* std::sync\nstd::sync */ let b = 1;\n";
        let stripped = strip_strings_and_comments(src);
        assert!(!stripped.contains("std::sync"));
        assert!(!stripped.contains("std::thread"));
        assert_eq!(stripped.lines().count(), src.lines().count());
        assert!(stripped.contains("let b = 1;"));
    }

    #[test]
    fn stripper_handles_raw_strings_and_char_literals() {
        let src =
            "let r = r#\"std::sync \"quoted\" inner\"#; let c = '\\n'; let lt: &'static str = x;\n";
        let stripped = strip_strings_and_comments(src);
        assert!(!stripped.contains("std::sync"));
        assert!(stripped.contains("&'static str"), "{stripped}");
    }

    #[test]
    fn wire_impl_target_extracts_names() {
        assert_eq!(
            wire_impl_target("impl Wire for ScatterQuery {"),
            Some("ScatterQuery".into())
        );
        assert_eq!(
            wire_impl_target("impl<T: Wire> Wire for Vec<T> {"),
            Some("Vec".into())
        );
        assert_eq!(wire_impl_target("impl Display for Foo {"), None);
    }

    #[test]
    fn transport_methods_found_across_lines() {
        let sf = SourceFile {
            rel: PathBuf::from("crates/x/src/lib.rs"),
            code: vec![
                "pub fn scatter(&self, q: Q)".into(),
                "    -> Result<Vec<u8>, TransportError> {".into(),
            ],
            test_region_start: None,
        };
        let methods = collect_transport_result_methods(&[sf]);
        assert!(methods.contains("scatter"));
    }

    fn source(rel: &str, lines: &[&str]) -> SourceFile {
        let code: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
        let test_region_start = code.iter().position(|l| l.contains("#[cfg(test)]"));
        SourceFile {
            rel: PathBuf::from(rel),
            code,
            test_region_start: test_region_start.map(|i| i + 1),
        }
    }

    #[test]
    fn unused_pub_counts_other_files_and_non_test_lines_only() {
        let sources = [
            source(
                "crates/x/src/a.rs",
                &[
                    "pub fn called_elsewhere() {}",
                    "pub fn called_here() {}",
                    "fn f() { called_here(); }",
                    "pub fn only_tested() {}",
                    "pub fn only_reexported() {}",
                    "pub fn called_by_benchmark() {}",
                    "pub(crate) fn restricted() {}",
                    "pub const fn only_declared() {}",
                    "#[cfg(test)]",
                    "mod tests { fn t() { only_tested(); } pub fn in_tests() {} }",
                ],
            ),
            source(
                "crates/x/src/lib.rs",
                &[
                    "pub use a::{",
                    "    only_reexported,",
                    "};",
                    "fn g() { called_elsewhere(); }",
                ],
            ),
        ];
        let benchmark = [source(
            "benchmark/src/main.rs",
            &[
                "fn main() { called_by_benchmark(); }",
                "pub fn never_called() {}",
            ],
        )];
        let mut findings = Vec::new();
        check_unused_pub(&sources, &benchmark, &mut findings);
        let flagged: Vec<(usize, &str)> = findings.iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(
            flagged,
            [(4, "unused-pub"), (5, "unused-pub"), (8, "unused-pub")]
        );
    }

    #[test]
    fn allow_entry_with_an_item_excuses_only_that_item() {
        let finding = |name: &str| Finding {
            path: PathBuf::from("crates/x/src/a.rs"),
            line: 1,
            rule: "unused-pub",
            message: format!("`pub fn {name}` has no caller"),
        };
        let allow = |item: Option<&str>| Allow {
            rule: "unused-pub".into(),
            path_substring: "x/src/a.rs".into(),
            item: item.map(str::to_owned),
        };
        assert!(allow(None).covers(&finding("kept")));
        assert!(allow(None).covers(&finding("other")));
        assert!(allow(Some("kept")).covers(&finding("kept")));
        assert!(!allow(Some("kept")).covers(&finding("other")));
        assert!(!allow(Some("kept")).covers(&finding("kept_too")));
    }

    #[test]
    fn pub_fn_names_skip_restricted_visibility() {
        assert_eq!(
            pub_fn_name("    pub fn lane_masks(&self) {"),
            Some("lane_masks")
        );
        assert_eq!(pub_fn_name("pub unsafe extern fn raw() {"), Some("raw"));
        assert_eq!(pub_fn_name("pub(crate) fn helper() {"), None);
        assert_eq!(pub_fn_name("fn private() {"), None);
        assert_eq!(pub_fn_name("pub struct Fn;"), None);
    }

    #[test]
    fn a_tests_rs_file_is_test_code_throughout() {
        let root = std::env::temp_dir().join(format!("dsr-lint-{}", std::process::id()));
        let path = root.join("crates/x/src/tests.rs");
        std::fs::create_dir_all(path.parent().expect("parent")).expect("temp dir");
        std::fs::write(&path, "fn f() {\n    t.scatter(q).expect(\"ok\");\n}\n").expect("write");
        let source = SourceFile::load(&root, &path);
        std::fs::remove_dir_all(&root).expect("clean up");
        let mut findings = Vec::new();
        check_lock_unwrap(&source, &BTreeSet::from(["scatter".into()]), &mut findings);
        assert!(source.is_test_line(1));
        assert!(findings.is_empty(), "{} finding(s)", findings.len());
    }
}
