// Lint fixture (never compiled): every public item here is named by another
// compilation unit (see `users/`), by an exported macro or by a doc test,
// or escapes with a reason. `pub(crate)` items are not public surface.
pub fn used_by_another_crate() {}

pub struct UsedByOwnTests;

pub enum UsedByOwnMain {
    A,
}

pub const USED_BY_OWN_BIN: u32 = 1;

pub trait UsedByExamples {}

pub type UsedByBenchmark = u32;

pub fn expanded_by_an_exported_macro() {}

/// ```
/// # use fixture::named_in_a_hidden_doc_test_line;
/// fixture::named_in_a_doc_test();
/// named_in_a_hidden_doc_test_line();
/// ```
pub fn named_in_a_doc_test() {}

pub fn named_in_a_hidden_doc_test_line() {}

#[macro_export]
macro_rules! call_it {
    () => {
        $crate::expanded_by_an_exported_macro()
    };
}

// lint: allow(crate-local-pub) — entry point for out-of-tree harnesses, no in-tree caller by design
pub fn kept_for_out_of_tree_callers() {}

pub(crate) fn crate_private_helper() {}
