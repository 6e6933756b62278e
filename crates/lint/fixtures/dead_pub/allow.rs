// Lint fixture (never compiled): one function is exercised by a test in
// another file of the corpus, the other is kept on purpose and says why.
pub fn pinned_by_a_test(x: u32) -> u32 {
    x + 1
}

// lint: allow(dead-pub) — entry point for out-of-tree harnesses, no in-tree caller by design
pub fn kept_for_out_of_tree_callers() {}
