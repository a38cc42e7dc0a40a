//! Structured diagnostics: the types live in `papar-core` (the binder
//! reports in them); this module re-exports them at their historic path
//! and renders a list the way the CLI prints it.

pub use papar_core::diag::{has_errors, Code, Diagnostic, Severity};

/// Render a diagnostic list the way the CLI prints it, one per line.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}
