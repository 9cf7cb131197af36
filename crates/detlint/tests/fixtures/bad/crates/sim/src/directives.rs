//! Bad fixture: directive misuse — an allow with no reason, an allow on
//! an unknown rule, an unused allow, and a directive that is not an allow.

// detlint::allow(banned-clock)
pub fn reasonless() -> u64 {
    1
}

// detlint::allow(made-up-rule): not a real rule
pub fn unknown_rule() -> u64 {
    2
}

// detlint::allow(banned-collection): nothing here actually uses one
pub fn unused_allow() -> u64 {
    3
}

// detlint::deny(banned-clock): only allows exist
pub fn not_a_directive(items: &[u64]) -> u64 {
    items.iter().sum()
}
