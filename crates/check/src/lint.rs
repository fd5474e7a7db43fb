//! `celeste_lint`: the workspace invariant gate. A small static pass
//! over every `.rs` file in the workspace (no rustc, no network)
//! enforcing the hand-auditable invariants the type system can't:
//!
//! 1. **`undocumented-unsafe`** — every `unsafe` block, `unsafe fn`
//!    and `unsafe impl` carries a `// SAFETY:` comment (or a
//!    `# Safety` rustdoc section) immediately above or on the line.
//! 2. **`hot-path-panic`** — no `unwrap`/`expect`/`panic!` family
//!    macros in the hot-path modules (`bvn.rs`, `likelihood.rs`,
//!    `fused.rs`, `deque.rs`, and the byte codec `codec.rs` that every
//!    disk- and network-facing decoder reads through) outside their
//!    `#[cfg(test)]` modules.
//! 3. **`kernel-alloc`** — no heap allocation and no wall-clock reads
//!    (`vec!`, `Box::new`, `collect`, `format!`, `Instant::now`, …)
//!    in the numeric kernel files outside tests. `Vec::new()` is
//!    allowed: it is `const` and does not allocate.
//! 4. **`store-lock-order`** — every lock acquisition in
//!    `crates/store` and `crates/serve` sits under a `// lock-order:`
//!    annotation naming its rank, so the documented serve-policy →
//!    id-stripe → cell-shard order stays visible (and greppable) at
//!    every acquisition site.
//! 5. **`missing-forbid-unsafe`** — crates audited as needing no
//!    unsafe (`store`, `serve`, `celeste`, `photo`, `cluster`) must
//!    pin that with `#![forbid(unsafe_code)]`.
//!
//! The pass works on a comment/string-stripped shadow of each file so
//! tokens inside literals or prose never trip a rule, while the
//! stripped-out comment text is kept per line for the `SAFETY:` /
//! `lock-order:` annotation checks.

use std::fs;
use std::path::{Path, PathBuf};

/// One rule violation at a file location.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

/// Modules where a panic is an outage, not a bug report: the inner
/// pixel loops, the work-stealing deque, and the codec that decodes
/// untrusted bytes from disk and the network.
const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/bvn.rs",
    "crates/core/src/likelihood.rs",
    "crates/linalg/src/fused.rs",
    "crates/par/src/deque.rs",
    "crates/survey/src/codec.rs",
];

/// Numeric kernel files: additionally no allocation or clock reads
/// (the deque allocates once at construction, so it is hot-path but
/// not kernel).
const KERNEL_FILES: &[&str] = &[
    "crates/core/src/bvn.rs",
    "crates/core/src/likelihood.rs",
    "crates/linalg/src/fused.rs",
];

/// Crates audited as not needing `unsafe` at all.
const FORBID_UNSAFE_CRATES: &[&str] = &[
    "crates/store",
    "crates/serve",
    "crates/celeste",
    "crates/photo",
    "crates/cluster",
];

const PANIC_TOKENS: &[&str] = &[".unwrap(", ".expect(", "panic!", "todo!", "unimplemented!"];

const ALLOC_TOKENS: &[&str] = &[
    "vec!",
    "Vec::with_capacity",
    "Box::new",
    "String::from",
    "String::new",
    "format!",
    ".to_vec(",
    ".to_string(",
    ".to_owned(",
    ".collect(",
    "Instant::now",
    "SystemTime::now",
];

/// Run every rule over the workspace rooted at `root`.
pub fn run(root: &Path) -> Vec<Violation> {
    let root = root.canonicalize().unwrap_or_else(|_| root.to_path_buf());
    let mut out = Vec::new();
    let mut files = Vec::new();
    for top in ["crates", "tests", "vendor"] {
        collect_rs_files(&root.join(top), &mut files);
    }
    files.sort();
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(text) = fs::read_to_string(path) else {
            out.push(Violation {
                file: rel,
                line: 0,
                rule: "io",
                msg: "unreadable source file".into(),
            });
            continue;
        };
        let shadow = Shadow::of(&text);
        check_unsafe(&rel, &shadow, &mut out);
        if HOT_PATH_FILES.contains(&rel.as_str()) {
            check_tokens(&rel, &shadow, PANIC_TOKENS, "hot-path-panic", &mut out);
        }
        if KERNEL_FILES.contains(&rel.as_str()) {
            check_tokens(&rel, &shadow, ALLOC_TOKENS, "kernel-alloc", &mut out);
        }
        if rel.starts_with("crates/store/src/") || rel.starts_with("crates/serve/src/") {
            check_store_lock_order(&rel, &shadow, &mut out);
        }
    }
    for krate in FORBID_UNSAFE_CRATES {
        check_forbid_unsafe(&root, krate, &mut out);
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                collect_rs_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

// ---------------------------------------------------------------------------
// Comment/string-stripped shadow.

/// Per-line views of a source file: `code` has comments and string
/// contents blanked (structure and line count preserved), `comments`
/// holds the text stripped from each line, and `in_test` marks lines
/// inside a `#[cfg(test)]`-gated module.
struct Shadow {
    code: Vec<String>,
    comments: Vec<String>,
    in_test: Vec<bool>,
}

impl Shadow {
    fn of(text: &str) -> Shadow {
        let (code, comments) = strip(text);
        let in_test = mark_test_spans(&code);
        Shadow {
            code,
            comments,
            in_test,
        }
    }
}

/// Split source into per-line code (comments and string/char literal
/// contents replaced with spaces) and per-line stripped comment text.
/// Handles nested block comments, raw strings, and the char-literal /
/// lifetime ambiguity.
fn strip(text: &str) -> (Vec<String>, Vec<String>) {
    let b: Vec<char> = text.chars().collect();
    let mut code = String::with_capacity(128);
    let mut comments = String::with_capacity(64);
    let mut code_lines = Vec::new();
    let mut comment_lines = Vec::new();
    let mut i = 0;
    let flush = |code: &mut String,
                 comments: &mut String,
                 code_lines: &mut Vec<String>,
                 comment_lines: &mut Vec<String>| {
        code_lines.push(std::mem::take(code));
        comment_lines.push(std::mem::take(comments));
    };
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                flush(
                    &mut code,
                    &mut comments,
                    &mut code_lines,
                    &mut comment_lines,
                );
                i += 1;
            }
            '/' if i + 1 < b.len() && b[i + 1] == '/' => {
                while i < b.len() && b[i] != '\n' {
                    comments.push(b[i]);
                    i += 1;
                }
            }
            '/' if i + 1 < b.len() && b[i + 1] == '*' => {
                let mut depth = 1;
                comments.push_str("/*");
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                        depth += 1;
                        comments.push_str("/*");
                        i += 2;
                    } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                        depth -= 1;
                        comments.push_str("*/");
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            flush(
                                &mut code,
                                &mut comments,
                                &mut code_lines,
                                &mut comment_lines,
                            );
                        } else {
                            comments.push(b[i]);
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                code.push('"');
                i += 1;
                while i < b.len() && b[i] != '"' {
                    if b[i] == '\\' {
                        i += 1; // skip the escaped char too
                    }
                    if i < b.len() {
                        if b[i] == '\n' {
                            flush(
                                &mut code,
                                &mut comments,
                                &mut code_lines,
                                &mut comment_lines,
                            );
                        }
                        i += 1;
                    }
                }
                code.push('"');
                i += 1;
            }
            'r' if i + 1 < b.len() && (b[i + 1] == '"' || b[i + 1] == '#') => {
                // Raw string: r"..." or r#"..."# (any hash depth).
                let mut j = i + 1;
                let mut hashes = 0;
                while j < b.len() && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == '"' {
                    code.push_str("r\"");
                    j += 1;
                    'raw: while j < b.len() {
                        if b[j] == '"' {
                            let mut k = 0;
                            while k < hashes && j + 1 + k < b.len() && b[j + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                j += 1 + hashes;
                                break 'raw;
                            }
                        }
                        if b[j] == '\n' {
                            flush(
                                &mut code,
                                &mut comments,
                                &mut code_lines,
                                &mut comment_lines,
                            );
                        }
                        j += 1;
                    }
                    code.push('"');
                    i = j;
                } else {
                    code.push('r');
                    i += 1;
                }
            }
            '\'' => {
                // Char literal vs lifetime: a literal is 'x' or an
                // escape; a lifetime has no closing quote nearby.
                if i + 2 < b.len() && b[i + 1] == '\\' {
                    code.push_str("' '");
                    i += 2; // opening quote + backslash
                    while i < b.len() && b[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                } else if i + 2 < b.len() && b[i + 2] == '\'' {
                    code.push_str("' '");
                    i += 3;
                } else {
                    code.push('\'');
                    i += 1;
                }
            }
            _ => {
                code.push(c);
                i += 1;
            }
        }
    }
    flush(
        &mut code,
        &mut comments,
        &mut code_lines,
        &mut comment_lines,
    );
    (code_lines, comment_lines)
}

/// Mark every line inside a module gated on `#[cfg(test)]` (or
/// `#[cfg(all(test, ...))]`), by brace tracking from the `mod` that
/// follows the attribute.
fn mark_test_spans(code: &[String]) -> Vec<bool> {
    let mut marked = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        let t = code[i].trim();
        let gates_test =
            t.starts_with("#[cfg(") && (t.contains("cfg(test") || t.contains("(test,"));
        if gates_test {
            // Find the item the attribute gates (skipping further
            // attributes); only blank whole spans for modules — a
            // cfg(test) fn or use is already a single item.
            let mut j = i + 1;
            while j < code.len() && code[j].trim().starts_with("#[") {
                j += 1;
            }
            if j < code.len() && code[j].trim_start().starts_with("mod ") {
                let mut depth = 0i32;
                let mut started = false;
                let mut k = j;
                while k < code.len() {
                    for c in code[k].chars() {
                        match c {
                            '{' => {
                                depth += 1;
                                started = true;
                            }
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    marked[k] = true;
                    if started && depth == 0 {
                        break;
                    }
                    k += 1;
                }
                marked[i] = true;
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    marked
}

// ---------------------------------------------------------------------------
// Rule 1: undocumented unsafe.

/// Whether `code[pos..]` begins an `unsafe` keyword occurrence that
/// needs a safety comment (declarations and blocks — not the `unsafe
/// fn(...)` *pointer type*, whose `fn` is immediately followed by a
/// parenthesis instead of a name).
fn needs_safety_comment(code: &str, pos: usize) -> bool {
    let after = code[pos + "unsafe".len()..].trim_start();
    if let Some(rest) = after.strip_prefix("fn") {
        return !rest.trim_start().starts_with('(');
    }
    true
}

fn is_word_at(code: &str, pos: usize, word: &str) -> bool {
    let before_ok = pos == 0
        || !code[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let end = pos + word.len();
    let after_ok = end >= code.len()
        || !code[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    before_ok && after_ok
}

fn check_unsafe(file: &str, sh: &Shadow, out: &mut Vec<Violation>) {
    for (ln, code) in sh.code.iter().enumerate() {
        let mut search = 0;
        while let Some(off) = code[search..].find("unsafe") {
            let pos = search + off;
            search = pos + "unsafe".len();
            if !is_word_at(code, pos, "unsafe") || !needs_safety_comment(code, pos) {
                continue;
            }
            if !has_safety_annotation(sh, ln) {
                out.push(Violation {
                    file: file.into(),
                    line: ln + 1,
                    rule: "undocumented-unsafe",
                    msg: "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc) \
                          on the preceding lines"
                        .into(),
                });
            }
            // One diagnostic per line is enough.
            break;
        }
    }
}

/// A safety annotation (the `SAFETY` comment tag with a colon, or a
/// `# Safety` rustdoc section) counts if it is on the same line or in
/// the contiguous run of comment/attribute/blank lines directly above
/// (so a fn's doc block and its attributes are seen).
fn has_safety_annotation(sh: &Shadow, ln: usize) -> bool {
    let hit = |s: &str| s.contains("SAFETY:") || s.contains("# Safety");
    if hit(&sh.comments[ln]) {
        return true;
    }
    let mut i = ln;
    while i > 0 {
        i -= 1;
        let code = sh.code[i].trim();
        let is_annotation_line =
            code.is_empty() || code.starts_with("#[") || code.starts_with("#!");
        if hit(&sh.comments[i]) {
            return true;
        }
        if !is_annotation_line {
            return false;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rules 2 and 3: forbidden tokens in hot-path / kernel files.

fn check_tokens(
    file: &str,
    sh: &Shadow,
    tokens: &[&str],
    rule: &'static str,
    out: &mut Vec<Violation>,
) {
    for (ln, code) in sh.code.iter().enumerate() {
        if sh.in_test[ln] {
            continue;
        }
        for tok in tokens {
            if code.contains(tok) {
                out.push(Violation {
                    file: file.into(),
                    line: ln + 1,
                    rule,
                    msg: format!("`{tok}` is not allowed here (outside `#[cfg(test)]`)"),
                });
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: lock-order annotations in the store.

/// Every lock acquisition (`.lock()` / `.read()` / `.write()`)
/// outside tests must carry a `lock-order:` comment on the same line
/// or within the six preceding lines — in practice, acquisitions live
/// in the annotated witness helpers of `CatalogStore`.
fn check_store_lock_order(file: &str, sh: &Shadow, out: &mut Vec<Violation>) {
    const ACQUIRE: &[&str] = &[".lock()", ".read()", ".write()"];
    for (ln, code) in sh.code.iter().enumerate() {
        if sh.in_test[ln] {
            continue;
        }
        if !ACQUIRE.iter().any(|t| code.contains(t)) {
            continue;
        }
        let lo = ln.saturating_sub(6);
        let annotated = (lo..=ln).any(|i| sh.comments[i].contains("lock-order:"));
        if !annotated {
            out.push(Violation {
                file: file.into(),
                line: ln + 1,
                rule: "store-lock-order",
                msg: "lock acquisition without a `// lock-order:` annotation in reach".into(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: forbid(unsafe_code) pins.

fn check_forbid_unsafe(root: &Path, krate: &str, out: &mut Vec<Violation>) {
    let lib = root.join(krate).join("src/lib.rs");
    let rel = format!("{krate}/src/lib.rs");
    match fs::read_to_string(&lib) {
        Ok(text) if text.contains("#![forbid(unsafe_code)]") => {}
        Ok(_) => out.push(Violation {
            file: rel,
            line: 1,
            rule: "missing-forbid-unsafe",
            msg: "crate is audited unsafe-free; add `#![forbid(unsafe_code)]`".into(),
        }),
        Err(_) => out.push(Violation {
            file: rel,
            line: 0,
            rule: "missing-forbid-unsafe",
            msg: "expected crate root not found".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shadow(src: &str) -> Shadow {
        Shadow::of(src)
    }

    #[test]
    fn strip_blanks_comments_and_strings() {
        let sh = shadow("let x = \"unsafe\"; // unsafe in comment\nunsafe { f() }\n");
        assert!(!sh.code[0].contains("unsafe"));
        assert!(sh.comments[0].contains("unsafe in comment"));
        assert!(sh.code[1].contains("unsafe"));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let sh = shadow("fn f<'a>(c: char) -> bool { c == 'x' || c == '\\n' }\n");
        assert!(sh.code[0].contains("<'a>"), "lifetime kept: {}", sh.code[0]);
        assert!(
            !sh.code[0].contains('x'),
            "char literal blanked: {}",
            sh.code[0]
        );
    }

    #[test]
    fn unsafe_fn_pointer_type_is_exempt() {
        let sh = shadow("struct S { f: unsafe fn(*const ()) }\n");
        let mut out = Vec::new();
        check_unsafe("t.rs", &sh, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn undocumented_unsafe_is_flagged_and_safety_accepted() {
        let mut out = Vec::new();
        check_unsafe("t.rs", &shadow("unsafe { f() }\n"), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "undocumented-unsafe");

        let mut out = Vec::new();
        check_unsafe(
            "t.rs",
            &shadow("// SAFETY: f has no preconditions here.\nunsafe { f() }\n"),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");

        // Doc `# Safety` above attributes counts for an unsafe fn.
        let mut out = Vec::new();
        check_unsafe(
            "t.rs",
            &shadow("/// # Safety\n/// Caller checked cpuid.\n#[inline]\nunsafe fn g() {}\n"),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn cfg_test_spans_are_masked() {
        let src = "fn hot() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let sh = shadow(src);
        assert!(!sh.in_test[0]);
        assert!(sh.in_test[2] && sh.in_test[3] && sh.in_test[4]);
        let mut out = Vec::new();
        check_tokens("t.rs", &sh, PANIC_TOKENS, "hot-path-panic", &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hot_path_panic_flagged_outside_tests() {
        let mut out = Vec::new();
        check_tokens(
            "t.rs",
            &shadow("fn hot() { x.unwrap(); }\n"),
            PANIC_TOKENS,
            "hot-path-panic",
            &mut out,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn lock_order_annotation_reach() {
        let mut out = Vec::new();
        check_store_lock_order(
            "t.rs",
            &shadow("// lock-order: id-stripe (1).\nlet g = m.lock();\n"),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
        let mut out = Vec::new();
        check_store_lock_order("t.rs", &shadow("let g = m.lock();\n"), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn workspace_is_clean() {
        // The real gate, run as a unit test too: the workspace must
        // lint clean from inside `cargo test`.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let violations = run(&root);
        assert!(
            violations.is_empty(),
            "celeste_lint found {} violation(s):\n{}",
            violations.len(),
            violations
                .iter()
                .map(|v| format!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.msg))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
