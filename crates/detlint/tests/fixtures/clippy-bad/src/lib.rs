//! Clippy negative control: one library-code instance of each hazard the
//! workspace's clippy gate must reject, each on a line marked `must fail`.

// The same deny line every library crate carries.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::missing_panics_doc
    )
)]

/// Hash order leaks into iteration.
pub struct Leaky {
    /// Iterated in hash order.
    pub by_id: std::collections::HashMap<u64, u64>, // must fail: disallowed_types
}

/// Builds a hash-ordered set.
#[must_use]
pub fn set() -> usize {
    let set = std::collections::HashSet::<u64>::new(); // must fail: disallowed_types
    set.len()
}

/// Reads the wall clock twice.
#[must_use]
pub fn wall_clock() -> bool {
    let a = std::time::Instant::now(); // must fail: disallowed_methods
    let b = std::time::SystemTime::now(); // must fail: disallowed_methods
    a.elapsed() < b.elapsed().unwrap_or_default()
}

/// Every panic site the deny line rejects.
///
/// # Panics
///
/// On `None`, `Err`, `n == 1` and `n == 2`.
#[must_use]
pub fn panics(x: Option<u64>, y: Result<u64, ()>, n: u64) -> u64 {
    let a = x.unwrap(); // must fail: unwrap_used
    let b = y.expect("ok"); // must fail: expect_used
    match n {
        1 => panic!("one"),       // must fail: panic
        2 => unreachable!("two"), // must fail: unreachable
        _ => a + b,
    }
}

/// A public function that can panic with no `# Panics` section.
#[rustfmt::skip]
pub fn undocumented(n: u64) { // must fail: missing_panics_doc
    assert!(n > 0);
}

/// An exemption without a reason.
///
/// # Panics
///
/// Always.
#[expect(clippy::panic)] // must fail: allow_attributes_without_reason
pub fn reasonless() {
    panic!("no reason given");
}

/// An exemption naming a lint that does not exist.
#[expect(clippy::no_such_lint, reason = "misspelt")] // must fail: unknown_lints
pub fn unknown() {}

/// An exemption that suppresses nothing.
#[expect(clippy::unwrap_used, reason = "stale")] // must fail: unfulfilled_lint_expectations
pub fn stale() {}
