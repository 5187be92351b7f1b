//! `aq-lint` — CLI front end for the determinism lint engine.
//!
//! ```text
//! aq-lint [--root <dir>] [--format text|json]   lint the workspace
//! aq-lint --rules                               list the rule catalog
//! ```
//!
//! Prints every diagnostic (text by default; `--format json` for
//! machine-readable output with byte-stable ordering) and exits 0 on a
//! clean tree, 1 if any were found, 2 on usage or I/O errors. That exit
//! code is the gate: there is no sanctioned-violation count to compare
//! against, a deliberate violation carries its `aq-lint: allow(...)` on
//! the line.

use std::path::PathBuf;
use std::process::ExitCode;

use aq_analysis::output::{render, Format};

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = Format::Text;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root requires a directory argument"),
            },
            "--format" => match args.next().and_then(|f| Format::parse(&f)) {
                Some(f) => format = f,
                None => return usage("--format requires one of: text, json"),
            },
            "--rules" => {
                for rule in aq_analysis::rules::RULES {
                    println!("{:<24} {}", rule.name, rule.summary);
                }
                return ExitCode::SUCCESS;
            }
            other => {
                return usage(&format!(
                    "unknown argument `{other}` (supported: --root <dir>, \
                     --format text|json, --rules)"
                ))
            }
        }
    }

    match aq_analysis::lint_workspace(&root) {
        Ok(diags) => {
            print!("{}", render(format, &diags));
            if diags.is_empty() {
                if format == Format::Text {
                    println!("aq-lint: clean");
                }
                ExitCode::SUCCESS
            } else {
                if format == Format::Text {
                    println!("aq-lint: {} violation(s)", diags.len());
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("aq-lint: walk failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("aq-lint: {msg}");
    ExitCode::from(2)
}
