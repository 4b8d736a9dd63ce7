//! The `simlint` binary: `cargo run -p simlint`.
//!
//! Walks the workspace source tree and enforces the determinism and
//! shared-state contracts (DESIGN.md §8, §14). Exit codes are
//! machine-readable so the verify script and CI can gate on them:
//!
//! * `0` — tree is lint-clean
//! * `1` — violations found
//! * `2` — usage or I/O error
//!
//! Output formats (`--format`):
//!
//! * `text` (default) — one `path:line: [rule] message` per line
//! * `json` — `{"violations": […], "files_scanned": N}` for tooling
//! * `github` — `::error file=…,line=…::…` workflow annotations

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use simlint::{collect_tree, lint, Diagnostic, Rule};
use vgrid_simobs::json;

const USAGE: &str = "usage: simlint [--root <path>] [--format text|json|github] [--list-rules]";

/// Walk up from the manifest (or current) directory to the directory
/// whose Cargo.toml declares `[workspace]`.
fn workspace_root() -> Option<PathBuf> {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())?;
    let mut dir: &Path = &start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir.to_path_buf());
                }
            }
        }
        dir = dir.parent()?;
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Github,
}

fn render(diags: &[Diagnostic], files_scanned: usize, format: Format) {
    match format {
        Format::Text => {
            for d in diags {
                println!("{d}");
            }
        }
        Format::Json => {
            let mut out = String::from("{\"violations\":[");
            for (i, d) in diags.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"path\":{},\"line\":{},\"rule\":\"{}\",\"message\":{}}}",
                    json::string(&d.path),
                    d.line,
                    d.rule.id(),
                    json::string(&d.message)
                ));
            }
            out.push_str(&format!("],\"files_scanned\":{files_scanned}}}"));
            println!("{out}");
        }
        Format::Github => {
            for d in diags {
                // Annotation messages must keep to one line.
                let msg = d.message.replace('\n', " ");
                println!(
                    "::error file={},line={},title=simlint {}::{}",
                    d.path,
                    d.line,
                    d.rule.id(),
                    msg
                );
            }
        }
    }
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("simlint: --root needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("github") => format = Format::Github,
                other => {
                    eprintln!(
                        "simlint: --format needs text|json|github, got `{}`\n{USAGE}",
                        other.unwrap_or("")
                    );
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for rule in Rule::all() {
                    println!("{:<22} {}", rule.id(), rule.describe());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("simlint: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let Some(root) = root.or_else(workspace_root) else {
        eprintln!("simlint: could not locate the workspace root (pass --root)");
        return ExitCode::from(2);
    };
    let files = match collect_tree(&root) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("simlint: failed to walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let diags = lint(&files);
    render(&diags, files.len(), format);
    if diags.is_empty() {
        if format == Format::Text {
            println!("simlint: OK ({} files scanned)", files.len());
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("simlint: {} violation(s)", diags.len());
        ExitCode::from(1)
    }
}
