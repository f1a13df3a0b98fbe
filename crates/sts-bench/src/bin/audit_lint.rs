//! Unsafe-audit lint: fails CI when any `unsafe` use lacks a `// SAFETY:`
//! comment, or when `unsafe` / `Ordering::Relaxed` appears outside the
//! audited-module allowlist (see [`sts_bench::audit`]).
//!
//! ```text
//! audit_lint [--root <dir>] [--advisory]
//! ```
//!
//! Exit codes: `0` when the workspace passes (or `--advisory` was given);
//! `1` when violations were found; `2` on unusable input (unreadable root,
//! bad flags, an allow-listed path that does not exist under the root),
//! which must fail the job rather than pass it silently.
//!
//! `--advisory` prints the same report but always exits `0`.

use std::path::PathBuf;
use std::process::ExitCode;

use sts_bench::audit;

struct Args {
    root: PathBuf,
    advisory: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        root: PathBuf::from("."),
        advisory: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                let dir = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| "--root needs an argument".to_string())?;
                out.root = PathBuf::from(dir);
            }
            "--advisory" => out.advisory = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("audit_lint: {e}");
            return ExitCode::from(2);
        }
    };
    let (violations, files) = match audit::audit_workspace(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("audit_lint: cannot audit {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };
    if files == 0 {
        eprintln!(
            "audit_lint: no Rust sources under {} — wrong --root?",
            args.root.display()
        );
        return ExitCode::from(2);
    }
    if violations.is_empty() {
        println!("audit_lint: OK ({files} files audited)");
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        println!("audit_lint: {v}");
    }
    println!(
        "audit_lint: {} violation(s) across {files} files",
        violations.len()
    );
    if args.advisory {
        println!("audit_lint: advisory mode — exiting 0 despite violations");
        return ExitCode::SUCCESS;
    }
    ExitCode::from(1)
}
