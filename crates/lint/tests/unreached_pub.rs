//! `unreached-pub` over a throwaway workspace on disk: two library
//! crates, an `examples/` file and a `tests/` file, walked by
//! `lint_workspace` exactly as the real workspace is.

use std::path::Path;

use hyt_lint::lints::lint_workspace;

const GRAPH: &str = "\
//! A library crate whose items are reached in every way there is.

/// Named by the other crate: clean.
pub fn used_elsewhere() {}

/// Named by nothing: a finding.
pub fn used_by_nothing() {}

/// Named only by the other crate's unit tests: a finding.
pub fn used_by_unit_tests() {}

/// Named only by an integration test: a finding.
pub fn used_by_integration_tests() {}

/// Named only by an example: clean.
pub fn used_by_example() {}

/// Two types whose methods share a name.
pub struct Left;
/// See [`Left`].
pub struct Right;

impl Left {
    /// Shares its name with `Right::reset`, and no other file names it:
    /// a finding.
    pub fn reset(&self) {}
}

impl Right {
    /// Shares its name with `Left::reset`: a finding too.
    pub fn reset(&self) {}
}

/// Declared here and in the other crate, and named by the example:
/// clean.
pub fn declared_twice() {}

/// Only bound as a local name elsewhere, never read (a `let` or
/// `let mut` binding is not a use): a finding.
pub fn shadowed() {}

/// Crate-visible, so not public API: never collected.
pub(crate) fn crate_only() {}

// hyt-lint: allow(unreached-pub) -- kept for an out-of-tree consumer
pub fn allowed_with_reason() {}

// hyt-lint: allow(unreached-pub)
pub fn allowed_without_reason() {}
";

const CORE: &str = "\
//! The other library crate.

/// Named by the example.
pub fn caller() {
    hyt_graph::used_elsewhere();
    let _ = (hyt_graph::Left, hyt_graph::Right);
    let shadowed = 0;
    let mut shadowed = 1;
}

/// Shares its name with the graph crate's: both are reached through the
/// example.
pub fn declared_twice() {}

#[cfg(test)]
mod tests {
    #[test]
    fn unit() {
        hyt_graph::used_by_unit_tests();
    }
}
";

const INTEGRATION_TEST: &str = "\
#[test]
fn integration() {
    hyt_graph::used_by_integration_tests();
}
";

const EXAMPLE: &str = "\
fn main() {
    hyt_core::caller();
    hyt_graph::used_by_example();
    hyt_graph::declared_twice();
}
";

/// 1-based line of the first line of `src` containing `needle`.
fn line_of(src: &str, needle: &str) -> u32 {
    let i = src.lines().position(|l| l.contains(needle)).expect("needle present");
    i as u32 + 1
}

fn write(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("dir writable");
    std::fs::write(path, text).expect("file writable");
}

#[test]
fn mini_workspace_flags_exactly_the_unreached_items() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("unreached_pub_workspace");
    let _ = std::fs::remove_dir_all(&root);
    write(&root, "crates/graph/src/lib.rs", GRAPH);
    write(&root, "crates/core/src/lib.rs", CORE);
    write(&root, "crates/core/tests/integration.rs", INTEGRATION_TEST);
    write(&root, "examples/demo.rs", EXAMPLE);

    let got: Vec<(String, u32, &str)> = lint_workspace(&root)
        .expect("workspace readable")
        .into_iter()
        .map(|d| (d.path, d.line, d.lint))
        .collect();
    let at = |line: u32, lint| ("crates/graph/src/lib.rs".to_string(), line, lint);
    let unreached = |item: &str| at(line_of(GRAPH, item), "unreached-pub");
    // The reason-less annotation silences nothing and is itself reported.
    let bare = line_of(GRAPH, "pub fn allowed_without_reason");
    let reset = line_of(GRAPH, "pub fn reset");
    let want = vec![
        unreached("pub fn used_by_nothing"),
        unreached("pub fn used_by_unit_tests"),
        unreached("pub fn used_by_integration_tests"),
        at(reset, "unreached-pub"),
        at(reset + 5, "unreached-pub"),
        unreached("pub fn shadowed"),
        at(bare - 1, "allow-syntax"),
        at(bare, "unreached-pub"),
    ];
    assert_eq!(got, want);
    std::fs::remove_dir_all(&root).expect("scratch workspace removable");
}
