//! `hyt-lint` — workspace invariant lints and a deterministic
//! interleaving checker for the striped value store.
//!
//! The workspace has accumulated load-bearing invariants that `cargo
//! test` cannot see: every lane/wire/record byte figure must come from
//! `hyt_core::api::ValueLayout` (a reintroduced hard-coded `24` would
//! compile, pass every differential suite on narrow values, and quietly
//! misprice wide ones); atomics belong to exactly three files; pricing
//! code must never compare floats with `==`; and the `Values<V>`
//! concurrency contract (invariants V1–V5 in `crates/core/src/api.rs`)
//! is only probed by wall-clock thread races. This crate machine-checks
//! all of it:
//!
//! * [`lints`] — seven deny-by-default lexical lints over
//!   `crates/*/src/**/*.rs` (`unreached-pub` also reads the examples and
//!   the facade crate for uses), built on the hand-rolled scanner in
//!   [`lexer`] (the environment is offline and vendored, so no `syn`),
//!   with an explicit in-source allow syntax that must carry a reason.
//! * [`interleave`] — a loom-style bounded-schedule explorer that
//!   models the striped store as an explicit state machine and checks
//!   the documented contract under *every* interleaving, including
//!   against deliberately seeded store bugs.
//!
//! The binary (`cargo run -p hyt-lint -- --deny-all`) is a CI gate;
//! the explorer doubles as a test harness for `hyt-core`
//! (`cargo test -p hyt-core --test interleave`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod interleave;
pub mod lexer;
pub mod lints;
