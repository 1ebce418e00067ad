//@path crates/graph/src/shapes.rs
/// Reached from another crate: clean.
pub fn ring(n: u32) -> u32 {
    n
}

/// BAD: nothing outside this file names it.
pub fn orphan() -> u32 {
    ring(1)
}

/// BAD: only this file's unit tests call it.
pub fn fixture_only() -> u32 {
    2
}

// hyt-lint: allow(unreached-pub) -- integration tests build fixtures with it
pub fn allowed() -> u32 {
    3
}

/// Crate-visible items are not public API: never collected.
pub(crate) fn helper() -> u32 {
    4
}

#[cfg(test)]
mod tests {
    #[test]
    fn fixture() {
        assert_eq!(super::fixture_only(), 2);
    }
}
//@path crates/core/src/user.rs
/// Calls across the crate boundary; the example below names it.
pub fn caller() -> u32 {
    hyt_graph::shapes::ring(3)
}
//@path examples/demo.rs
fn main() {
    println!("{}", hyt_core::user::caller());
}
