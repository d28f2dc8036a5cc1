//! CLI for `wilocator-lint`.
//!
//! ```text
//! cargo run -p wilocator-lint -- --workspace                # lint the whole tree
//! cargo run -p wilocator-lint -- --workspace --format sarif # SARIF 2.1.0 log on stdout
//! cargo run -p wilocator-lint -- --workspace --fix          # apply safe fixes
//! cargo run -p wilocator-lint -- --workspace --fix --dry-run# print the fix diff only
//! cargo run -p wilocator-lint -- path/to/file.rs            # lint files (all rules)
//! cargo run -p wilocator-lint -- --rules                    # print the rule catalog
//! ```
//!
//! Exits 0 when clean, 1 on any violation (including pragma-hygiene), 2
//! on usage errors.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use wilocator_lint::{
    analyze_file_all_rules, find_workspace_root, fix, run_workspace_timed, sarif, ALL_RULES,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::from(if args.is_empty() { 2 } else { 0 });
    }
    if args.iter().any(|a| a == "--rules") {
        for rule in ALL_RULES {
            println!("{}  allow({})", rule.code(), rule.slug());
        }
        return ExitCode::SUCCESS;
    }

    let want_sarif = match format_flag(&args) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("wilocator-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let want_fix = args.iter().any(|a| a == "--fix");
    let dry_run = args.iter().any(|a| a == "--dry-run");
    let want_timings = args.iter().any(|a| a == "--timings");
    if dry_run && !want_fix {
        eprintln!("wilocator-lint: --dry-run only makes sense with --fix");
        return ExitCode::from(2);
    }
    if want_fix && want_sarif {
        eprintln!("wilocator-lint: --fix and --format sarif are mutually exclusive");
        return ExitCode::from(2);
    }

    // The root fixes resolve against: the workspace root in --workspace
    // mode, the current directory for explicit file arguments.
    let mut fix_root = PathBuf::from(".");
    let violations = if args.iter().any(|a| a == "--workspace") {
        let cwd = match std::env::current_dir() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("wilocator-lint: cannot read current dir: {e}");
                return ExitCode::from(2);
            }
        };
        let Some(root) = find_workspace_root(&cwd) else {
            eprintln!(
                "wilocator-lint: no [workspace] Cargo.toml above {}",
                cwd.display()
            );
            return ExitCode::from(2);
        };
        fix_root = root.clone();
        let (violations, timings) = run_workspace_timed(&root);
        if want_timings {
            // stderr, so `--format sarif` stdout stays machine-clean.
            eprintln!("{}", timings.render());
        }
        violations
    } else {
        let mut all = Vec::new();
        let mut skip_next = false;
        for arg in &args {
            if skip_next {
                skip_next = false;
                continue;
            }
            if arg == "--format" {
                skip_next = true;
                continue;
            }
            if arg == "--fix"
                || arg == "--dry-run"
                || arg == "--timings"
                || arg.starts_with("--format=")
            {
                continue;
            }
            if arg.starts_with('-') {
                eprintln!("wilocator-lint: unknown flag `{arg}`");
                return ExitCode::from(2);
            }
            match std::fs::read_to_string(Path::new(arg)) {
                Ok(text) => all.extend(analyze_file_all_rules(arg, &text)),
                Err(e) => {
                    eprintln!("wilocator-lint: cannot read {arg}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        all
    };

    if want_fix && dry_run {
        // Diff only; CI's `lint-fix-is-noop` check asserts this is empty
        // on a clean tree.
        print!("{}", fix::dry_run(&fix_root, &violations));
        return if violations.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if want_fix {
        match fix::apply_to_disk(&fix_root, &violations) {
            Ok(n) => println!("wilocator-lint: applied {n} fix(es)"),
            Err(e) => {
                eprintln!("wilocator-lint: fix failed: {e}");
                return ExitCode::from(2);
            }
        }
        return if violations.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if want_sarif {
        println!("{}", sarif::render(&violations));
        return if violations.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    for v in &violations {
        println!("{v}\n");
    }
    if violations.is_empty() {
        println!("wilocator-lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("wilocator-lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Parses `--format <rustc|sarif>` (or `--format=<…>`); `Ok(true)` means
/// SARIF.
fn format_flag(args: &[String]) -> Result<bool, String> {
    for (i, arg) in args.iter().enumerate() {
        if let Some(v) = arg.strip_prefix("--format=") {
            return match v {
                "sarif" => Ok(true),
                "rustc" => Ok(false),
                other => Err(format!("unknown format `{other}` (rustc|sarif)")),
            };
        }
        if arg == "--format" {
            return match args.get(i + 1).map(String::as_str) {
                Some("sarif") => Ok(true),
                Some("rustc") => Ok(false),
                Some(other) => Err(format!("unknown format `{other}` (rustc|sarif)")),
                None => Err("--format needs a value (rustc|sarif)".to_string()),
            };
        }
    }
    Ok(false)
}

fn print_usage() {
    eprintln!(
        "usage: wilocator-lint [--workspace | <file.rs>...] [--format rustc|sarif] [--fix [--dry-run]] [--timings] | --rules\n\
         Checks determinism (W001), literal slice indexing (W002), atomic\n\
         orderings (W003), pragma hygiene (W005), span guard discipline\n\
         (W006), lock order (W007), unit dataflow (W008), transitive panic\n\
         paths (W009), raw sync primitives in sync-layer modules (W010),\n\
         metric family hygiene (W011), hot-path effect budgets (W012) and\n\
         read-path purity (W013).\n\
         --format sarif  emit a SARIF 2.1.0 log on stdout\n\
         --fix           apply safe fixes in place\n\
         --fix --dry-run print the fix diff (and suggestions) without writing\n\
         --timings       print per-phase/per-rule wall time to stderr"
    );
}
