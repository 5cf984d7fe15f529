//! simlint — repo-specific static analysis for the SimFS daemon.
//!
//! Two checks — the two repo invariants no type can express — driven
//! by in-repo registries so the rules and the code cannot drift apart
//! silently:
//!
//! * **Lock hierarchy + Effects-outbox** ([`lockcheck`]): seeded from
//!   `crates/core/LOCKS.md`. Inside a scope holding a documented lock,
//!   no equal-or-higher lock may be acquired, and no blocking-denylist
//!   call may appear while a `blocking: no` lock is held. The registry
//!   is also cross-checked against the runtime constants in
//!   `simkit::lockrank` ([`registry::check_lockrank_consistency`]).
//! * **Unsafe hygiene** ([`unsafecheck`]): every `unsafe` carries a
//!   `// SAFETY:` justification.
//!
//! Wire-tag uniqueness/symmetry and `DvStats` completeness are not
//! checked here: the frame table in `wire.rs` and the counter table in
//! `dv.rs` generate every site from one row, so that drift does not
//! compile and needs no lint.
//!
//! No dependencies: the lexer in [`lexer`] is hand-rolled, because
//! this crate must build in the vendored-offline environment and run
//! as a cheap CI gate (`cargo run -p simlint`).

use std::fmt;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod lockcheck;
pub mod registry;
pub mod unsafecheck;

/// One diagnostic. `file` is repo-relative; `line` is 1-based.
#[derive(Clone, Debug)]
pub struct Finding {
    pub check: &'static str,
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl Finding {
    pub fn new(check: &'static str, file: &str, line: usize, message: String) -> Self {
        Finding {
            check,
            file: file.to_string(),
            line,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.check, self.message
        )
    }
}

/// Result of a full run: the findings plus how many files were
/// scanned (so "clean" output can show the lint actually looked).
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

/// Walks up from `start` to the workspace root, identified by the
/// lock registry's presence.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("crates/core/LOCKS.md").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn read(root: &Path, rel: &str, findings: &mut Vec<Finding>) -> Option<String> {
    match std::fs::read_to_string(root.join(rel)) {
        Ok(s) => Some(s),
        Err(e) => {
            findings.push(Finding::new("io", rel, 1, format!("cannot read: {e}")));
            None
        }
    }
}

/// Recursively collects `.rs` files under `dir`, repo-relative.
fn rs_files_under(root: &Path, rel: &str, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(root.join(rel)) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let child = format!("{rel}/{name}");
        let path = entry.path();
        if path.is_dir() {
            rs_files_under(root, &child, out);
        } else if name.ends_with(".rs") {
            out.push(child);
        }
    }
}

/// Runs every check against the repo at `root`.
pub fn run_all(root: &Path) -> Report {
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;

    // Registry + lockrank.rs consistency.
    let reg_label = "crates/core/LOCKS.md";
    let Some(reg_src) = read(root, reg_label, &mut findings) else {
        return Report {
            findings,
            files_scanned,
        };
    };
    let (reg, reg_findings) = registry::parse(&reg_src, reg_label);
    findings.extend(reg_findings);
    let lockrank_label = "crates/simkit/src/lockrank.rs";
    if let Some(src) = read(root, lockrank_label, &mut findings) {
        findings.extend(registry::check_lockrank_consistency(&reg, &src, reg_label));
        files_scanned += 1;
    }

    // Lock order + blocking denylist over every registered file.
    let mut lock_files: Vec<&str> = reg
        .rows
        .iter()
        .flat_map(|r| r.files.iter().map(String::as_str))
        .collect();
    lock_files.sort_unstable();
    lock_files.dedup();
    for file in lock_files {
        if let Some(src) = read(root, file, &mut findings) {
            findings.extend(lockcheck::check_source(file, &src, &reg));
            files_scanned += 1;
        }
    }

    // Unsafe hygiene over every crate source tree (fixtures and tests
    // live outside src/ and are exempt by construction).
    let mut unsafe_files = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            if entry.path().is_dir() {
                let krate = entry.file_name();
                rs_files_under(root, &format!("crates/{}/src", krate.to_string_lossy()), &mut unsafe_files);
            }
        }
    }
    unsafe_files.sort_unstable();
    for file in &unsafe_files {
        if let Ok(src) = std::fs::read_to_string(root.join(file)) {
            findings.extend(unsafecheck::check_source(file, &src));
            files_scanned += 1;
        }
    }

    Report {
        findings,
        files_scanned,
    }
}
