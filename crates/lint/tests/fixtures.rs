//! Golden tests: every fixture under `fixtures/` lints to exactly its
//! sibling `.expected` file.
//!
//! A fixture's first line is a `//@path <workspace-relative-path>`
//! directive giving the path the snippet pretends to live at (the lints
//! scope by file); the directive line stays in the linted source so
//! fixture line numbers and diagnostic line numbers agree. A fixture with
//! several `//@path` sections lints as a small workspace, one file per
//! section, so the cross-file `unreached-pub` lint can fire; each file
//! keeps the fixture's line numbers (lines of other sections are blank).
//! Regenerate goldens with `UPDATE_EXPECT=1 cargo test -p hyt-lint --test
//! fixtures`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use hyt_lint::lints::{lint_source, lint_sources, LINT_NAMES};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// The path a `//@path <rel-path>` directive line names.
fn directive(line: &str) -> Option<&str> {
    line.strip_prefix("//@path ").map(str::trim)
}

fn render(path: &Path) -> (String, Vec<&'static str>) {
    let src = std::fs::read_to_string(path).expect("fixture readable");
    let lines: Vec<&str> = src.lines().collect();
    assert!(
        lines.first().is_some_and(|l| directive(l).is_some()),
        "{}: first line must be `//@path <rel-path>`",
        path.display()
    );
    let starts: Vec<usize> = (0..lines.len()).filter(|&i| directive(lines[i]).is_some()).collect();
    let diags = if let [only] = starts[..] {
        lint_source(directive(lines[only]).unwrap_or_default(), &src)
    } else {
        let files: Vec<(String, String)> = starts
            .iter()
            .enumerate()
            .map(|(k, &a)| {
                let b = starts.get(k + 1).copied().unwrap_or(lines.len());
                let text: Vec<&str> = (0..lines.len())
                    .map(|i| if (a..b).contains(&i) { lines[i] } else { "" })
                    .collect();
                (directive(lines[a]).unwrap_or_default().to_string(), text.join("\n"))
            })
            .collect();
        lint_sources(&files)
    };
    let fired = diags.iter().map(|d| d.lint).collect();
    let mut out = String::new();
    for d in &diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    (out, fired)
}

#[test]
fn fixtures_match_goldens() {
    let update = std::env::var_os("UPDATE_EXPECT").is_some();
    let mut fired_anywhere: BTreeSet<&str> = BTreeSet::new();
    let mut checked = 0;
    let mut entries: Vec<_> = std::fs::read_dir(fixtures_dir())
        .expect("fixtures dir exists")
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "no fixtures found");
    for fixture in entries {
        let (actual, fired) = render(&fixture);
        fired_anywhere.extend(fired);
        let golden = fixture.with_extension("expected");
        if update {
            std::fs::write(&golden, &actual).expect("golden writable");
            continue;
        }
        let expected = std::fs::read_to_string(&golden).unwrap_or_else(|_| {
            panic!("{}: missing golden (run UPDATE_EXPECT=1)", golden.display())
        });
        assert_eq!(
            actual,
            expected,
            "{}: diagnostics drifted from golden (UPDATE_EXPECT=1 to regenerate)",
            fixture.display()
        );
        checked += 1;
    }
    if !update {
        assert!(checked >= 8, "expected at least 8 fixtures, checked {checked}");
    }
    // Every lint must be proven to fire by at least one fixture, and the
    // malformed-annotation pseudo-lint as well.
    for lint in LINT_NAMES {
        assert!(fired_anywhere.contains(lint), "no fixture exercises `{lint}`");
    }
    assert!(fired_anywhere.contains("allow-syntax"), "no fixture exercises `allow-syntax`");
}

#[test]
fn clean_fixture_is_clean() {
    let (out, _) = render(&fixtures_dir().join("clean.rs"));
    assert_eq!(out, "", "clean.rs must produce no diagnostics");
}
