//! The gate the CI leg enforces, as a plain test: the real workspace is
//! lint-clean, so `hyt-lint --deny-all` exits 0 — and every path the
//! lints scope by still exists, so a renamed file cannot silently drop
//! out of a lint's reach.

use std::path::Path;

use hyt_lint::lints::{
    ATOMIC_OWNER_FILES, BYTE_SCOPE_FILES, CSR_OWNER_SEGMENT, FLOAT_SCOPE_FILES, LIBRARY_CRATES,
};

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = hyt_lint::lints::lint_workspace(&root).expect("workspace readable");
    assert!(
        diags.is_empty(),
        "workspace has lint findings:\n{}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn every_scope_entry_names_a_workspace_path() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let library_srcs: Vec<String> = LIBRARY_CRATES.iter().map(|c| format!("{c}/src/")).collect();
    let entries = (BYTE_SCOPE_FILES.iter().chain(&FLOAT_SCOPE_FILES).chain(&ATOMIC_OWNER_FILES))
        .copied()
        .chain([CSR_OWNER_SEGMENT])
        .chain(library_srcs.iter().map(String::as_str));
    for entry in entries {
        // An entry ending in `/` scopes a directory, any other a file.
        let path = crates.join(entry);
        let exists = if entry.ends_with('/') { path.is_dir() } else { path.is_file() };
        assert!(exists, "lint scope entry `{entry}` names no path under crates/");
    }
}
