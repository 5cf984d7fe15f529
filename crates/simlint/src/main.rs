//! `cargo run -p simlint` — run every repo invariant check and exit
//! non-zero on any finding. See the crate docs (`src/lib.rs`) and
//! `crates/core/LOCKS.md` for what is enforced.

use std::process::ExitCode;

fn main() -> ExitCode {
    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("simlint: cannot determine current directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(root) = simlint::find_root(&cwd) else {
        eprintln!(
            "simlint: no workspace root found walking up from {} (looked for crates/core/LOCKS.md)",
            cwd.display()
        );
        return ExitCode::FAILURE;
    };
    let report = simlint::run_all(&root);
    if report.findings.is_empty() {
        println!(
            "simlint: clean — {} files checked (lock hierarchy, blocking denylist, unsafe hygiene)",
            report.files_scanned
        );
        return ExitCode::SUCCESS;
    }
    for f in &report.findings {
        eprintln!("{f}");
    }
    eprintln!("simlint: {} finding(s)", report.findings.len());
    ExitCode::FAILURE
}
