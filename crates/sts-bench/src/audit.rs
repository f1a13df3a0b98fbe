//! The unsafe-audit lint behind the `audit_lint` binary.
//!
//! Walks the workspace's first-party Rust sources (everything under the
//! repository root except `vendor/` and `target/`) and enforces two rules:
//!
//! 1. **Every `unsafe` use carries a `// SAFETY:` comment** (or, for
//!    `unsafe fn` declarations, the idiomatic `# Safety` doc section) — on
//!    the same line, or in the contiguous run of comments/attributes
//!    immediately above the statement (a run covers the next two code
//!    lines, so a rustfmt-wrapped statement stays covered; a blank line or
//!    further code ends the coverage). The comment is where the soundness
//!    argument lives; the lint makes its absence a CI failure instead of a
//!    review nit.
//! 2. **`unsafe` and `Ordering::Relaxed` appear only in the audited-module
//!    allowlist** ([`is_allowlisted`]): the lock-free primitives in
//!    `sts-numa` (`pool`, `affinity`), the solver
//!    kernels in `sts-core::solver`, and the lock-free recorders in
//!    `sts-trace` (`span`, plus `metrics`, whose `Relaxed` uses are
//!    monotonic counters merged under a single publishing barrier). New
//!    unsafe code elsewhere must either move into an audited module or
//!    extend the allowlist in the same PR that argues its soundness. The
//!    permission is for code that exists: an allow-listed path that is not
//!    in the tree makes [`audit_workspace`] fail as unusable input, so
//!    deleting a primitive deletes its entry.
//!
//! The scanner is line-based and deliberately simple: line comments and
//! string literals are stripped before token matching, so prose mentioning
//! `unsafe` does not trip the lint, and a `SAFETY:` inside a string does not
//! satisfy it. Block comments spanning lines are rare in this codebase's
//! rustfmt style and are handled conservatively (the scanner tracks `/* */`
//! nesting per file).

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Which audit rule a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// An `unsafe` use without a `// SAFETY:` comment.
    MissingSafetyComment,
    /// An `unsafe` use outside the audited-module allowlist.
    UnsafeOutsideAllowlist,
    /// An `Ordering::Relaxed` use outside the audited-module allowlist.
    RelaxedOutsideAllowlist,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::MissingSafetyComment => write!(f, "unsafe without a // SAFETY: comment"),
            Rule::UnsafeOutsideAllowlist => write!(f, "unsafe outside the audited allowlist"),
            Rule::RelaxedOutsideAllowlist => {
                write!(f, "Ordering::Relaxed outside the audited allowlist")
            }
        }
    }
}

/// One audit finding: file, 1-based line, rule, and the offending line.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Path relative to the audited root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule broken.
    pub rule: Rule,
    /// The source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.excerpt
        )
    }
}

/// The allow-listed files, as root-relative paths.
const ALLOWED_FILES: [&str; 4] = [
    "crates/sts-numa/src/pool.rs",
    "crates/sts-numa/src/affinity.rs",
    "crates/sts-trace/src/span.rs",
    "crates/sts-trace/src/metrics.rs",
];

/// The allow-listed directory (every file under it), as a root-relative
/// prefix.
const ALLOWED_DIR: &str = "crates/sts-core/src/solver/";

/// The audited-module allowlist. `unsafe` and `Ordering::Relaxed` are
/// permitted only here (rule 1 still applies).
pub fn is_allowlisted(rel_path: &str) -> bool {
    ALLOWED_FILES.contains(&rel_path) || rel_path.starts_with(ALLOWED_DIR)
}

/// The allowlist entries that name nothing under `root`: a standing
/// permission for `unsafe` / `Relaxed` at a path where a new file could
/// later pick it up unreviewed.
fn missing_allowlisted(root: &Path) -> Vec<&'static str> {
    ALLOWED_FILES
        .into_iter()
        .filter(|file| !root.join(file).is_file())
        .chain(Some(ALLOWED_DIR).filter(|dir| !root.join(dir).is_dir()))
        .collect()
}

/// Whether `content[i..]` starts a standalone `unsafe` / `Relaxed` token
/// (identifier-boundary on both sides).
fn token_at(line: &str, i: usize, token: &str) -> bool {
    let bytes = line.as_bytes();
    if !line.is_char_boundary(i) || !line[i..].starts_with(token) {
        return false;
    }
    let ident = |b: u8| b == b'_' || b.is_ascii_alphanumeric();
    if i > 0 && ident(bytes[i - 1]) {
        return false;
    }
    let end = i + token.len();
    end >= bytes.len() || !ident(bytes[end])
}

fn contains_token(line: &str, token: &str) -> bool {
    let first = match token.as_bytes().first() {
        Some(&b) => b,
        None => return false,
    };
    line.bytes()
        .enumerate()
        .any(|(i, b)| b == first && token_at(line, i, token))
}

/// Strips string literals and line comments from one line of code,
/// continuing a block comment from the previous line when `in_block` is set.
/// Returns the code text (literals replaced by spaces) and the comment text
/// of this line (used for the `SAFETY:` lookup).
fn split_code_and_comment(line: &str, in_block: &mut bool) -> (String, String) {
    let mut code = String::with_capacity(line.len());
    let mut comment = String::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    let mut in_str = false;
    let mut in_char = false;
    while i < bytes.len() {
        let b = bytes[i];
        if *in_block {
            comment.push(b as char);
            if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                comment.push('/');
                *in_block = false;
                i += 2;
                continue;
            }
            i += 1;
            continue;
        }
        if in_str {
            if b == b'\\' {
                i += 2;
                continue;
            }
            if b == b'"' {
                in_str = false;
            }
            code.push(' ');
            i += 1;
            continue;
        }
        if in_char {
            if b == b'\\' {
                i += 2;
                continue;
            }
            if b == b'\'' {
                in_char = false;
            }
            code.push(' ');
            i += 1;
            continue;
        }
        match b {
            b'"' => {
                in_str = true;
                code.push(' ');
            }
            // A lifetime tick (`'a`) is not a char literal; only treat a
            // quote as one when it closes within two characters.
            b'\'' if bytes.get(i + 2) == Some(&b'\'') || bytes.get(i + 1) == Some(&b'\\') => {
                in_char = true;
                code.push(' ');
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                comment.push_str(&line[i..]);
                break;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                *in_block = true;
                comment.push_str("/*");
                i += 2;
                continue;
            }
            _ => code.push(b as char),
        }
        i += 1;
    }
    // Strings never close across lines in this codebase's style; reset so a
    // stray quote cannot swallow the rest of the file.
    (code, comment)
}

/// Scans one file's source text. `rel_path` is the root-relative path used
/// for allowlist decisions and reporting.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Violation> {
    let allowed = is_allowlisted(rel_path);
    let mut violations = Vec::new();
    let mut in_block = false;
    // Whether the current comment/attribute run contains a safety argument,
    // and how many further code lines an already-ended run still covers
    // (rustfmt wraps statements, so the `unsafe` token may sit one line
    // below the statement's first code line).
    let mut run_has_safety = false;
    let mut coverage_left = 0usize;
    for (idx, raw) in source.lines().enumerate() {
        let (code, comment) = split_code_and_comment(raw, &mut in_block);
        let code_trim = code.trim();
        let line_no = idx + 1;
        let is_safety_comment = comment.contains("SAFETY:") || comment.contains("# Safety");
        let comment_only = code_trim.is_empty() && !comment.is_empty();
        let attr_only = code_trim.starts_with("#[") || code_trim.starts_with("#![");
        let blank = code_trim.is_empty() && comment.is_empty();
        if comment_only || attr_only {
            run_has_safety |= is_safety_comment;
        } else if blank {
            // A blank line separates the safety argument from later code.
            run_has_safety = false;
            coverage_left = 0;
        }
        let covered = run_has_safety || coverage_left > 0 || is_safety_comment;
        let has_unsafe = contains_token(&code, "unsafe");
        // Every Relaxed use in this workspace is written `...Ordering::Relaxed`
        // (including `AtomicOrdering::Relaxed` aliases, which this substring
        // still matches); bare `Relaxed` imports are not used.
        let has_relaxed = code.contains("Ordering::Relaxed");
        if has_unsafe {
            if !allowed {
                violations.push(Violation {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: Rule::UnsafeOutsideAllowlist,
                    excerpt: raw.trim().to_string(),
                });
            }
            if !covered {
                violations.push(Violation {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: Rule::MissingSafetyComment,
                    excerpt: raw.trim().to_string(),
                });
            }
        }
        if has_relaxed && !allowed {
            violations.push(Violation {
                file: rel_path.to_string(),
                line: line_no,
                rule: Rule::RelaxedOutsideAllowlist,
                excerpt: raw.trim().to_string(),
            });
        }
        // A code line consumes one unit of coverage; the run that just ended
        // grants two (the statement's first line plus one wrapped line).
        if !comment_only && !attr_only && !blank {
            if run_has_safety {
                coverage_left = 2;
                run_has_safety = false;
            }
            coverage_left = coverage_left.saturating_sub(1);
        }
    }
    violations
}

/// Recursively collects the `.rs` files to audit under `root`, skipping
/// `vendor/`, `target/` and hidden directories. Paths are returned sorted
/// for deterministic reports.
fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "vendor" || name == "target" || name.starts_with('.') {
                    continue;
                }
                walk(&path, out)?;
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    Ok(files)
}

/// Audits every first-party source file under `root`. Returns the
/// violations (empty means the workspace passes) and the number of files
/// scanned.
///
/// # Errors
///
/// An unreadable `root`, or — as [`io::ErrorKind::NotFound`] — an
/// allow-listed path that does not exist under it.
pub fn audit_workspace(root: &Path) -> io::Result<(Vec<Violation>, usize)> {
    let files = collect_sources(root)?;
    let missing = missing_allowlisted(root);
    if !missing.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "allow-listed but absent: {} — remove the entry with the code",
                missing.join(", ")
            ),
        ));
    }
    let mut violations = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(path)?;
        violations.extend(scan_source(&rel, &source));
    }
    Ok((violations, files.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safety_comment_on_preceding_line_passes() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        let v = scan_source("crates/sts-numa/src/pool.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn safety_comment_runs_extend_through_attributes_and_same_line() {
        let src =
            "// SAFETY: one writer per slot.\n#[allow(clippy::mut_from_ref)]\nunsafe fn g() {}\n";
        assert!(scan_source("crates/sts-numa/src/pool.rs", src).is_empty());
        let src = "let x = unsafe { read() }; // SAFETY: published by the barrier.\n";
        assert!(scan_source("crates/sts-numa/src/pool.rs", src).is_empty());
    }

    #[test]
    fn missing_safety_comment_is_flagged() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let v = scan_source("crates/sts-numa/src/pool.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::MissingSafetyComment);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn a_blank_line_breaks_the_safety_run() {
        let src = "// SAFETY: stale.\nfn other() {}\n\nunsafe fn g() {}\n";
        let v = scan_source("crates/sts-numa/src/pool.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn unsafe_outside_the_allowlist_is_flagged_even_with_a_comment() {
        let src = "// SAFETY: still not allowed here.\nunsafe { x() }\n";
        let v = scan_source("crates/sts-graph/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnsafeOutsideAllowlist);
    }

    #[test]
    fn relaxed_outside_the_allowlist_is_flagged() {
        let src = "x.store(1, Ordering::Relaxed);\n";
        let v = scan_source("crates/sts-sched/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::RelaxedOutsideAllowlist);
        assert!(scan_source("crates/sts-trace/src/metrics.rs", src).is_empty());
    }

    #[test]
    fn prose_and_strings_do_not_trip_the_lint() {
        let src = "//! The unsafe kernels use Ordering::Relaxed counters.\nlet s = \"unsafe Ordering::Relaxed\";\nlet t = UnsafeCell::new(0);\n";
        assert!(scan_source("crates/sts-graph/src/lib.rs", src).is_empty());
    }

    #[test]
    fn an_allowlisted_path_missing_from_the_tree_is_reported() {
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert!(missing_allowlisted(&repo).is_empty());
        // Seen from a root that holds only part of the tree, every entry
        // outside that part is a permission for nothing, and the audit
        // refuses to run.
        let part = repo.join("crates/sts-numa");
        let missing = missing_allowlisted(&part);
        assert_eq!(missing.len(), ALLOWED_FILES.len() + 1);
        assert!(missing.contains(&"crates/sts-numa/src/pool.rs"));
        assert!(missing.contains(&ALLOWED_DIR));
        let err = audit_workspace(&part).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("crates/sts-numa/src/pool.rs"));
    }

    #[test]
    fn the_repository_head_passes_its_own_audit() {
        // The binary runs this same scan in CI; keeping a unit-level copy
        // makes `cargo test` catch regressions without the binary.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (violations, files) = audit_workspace(&root).unwrap();
        assert!(files > 50, "walked only {files} files — wrong root?");
        assert!(
            violations.is_empty(),
            "{} violations:\n{}",
            violations.len(),
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
