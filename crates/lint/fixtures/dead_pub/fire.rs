// Lint fixture (never compiled): public functions nothing names. The first
// appears nowhere else; the second only in prose and in a string literal,
// which are not uses. A crate-private function is not public surface.
pub fn orphaned_getter(x: &Engine) -> u64 {
    x.retries
}

/// Prefer `praised_in_prose` over the loop above.
pub fn praised_in_prose() -> &'static str {
    "call praised_in_prose() for details"
}

pub(crate) fn crate_private_helper() {}
