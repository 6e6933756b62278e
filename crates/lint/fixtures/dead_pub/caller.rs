// Lint fixture (never compiled): the test file that names
// `pinned_by_a_test`, standing in for `crates/*/tests/`.
#[test]
fn pinned() {
    assert_eq!(fixture::pinned_by_a_test(1), 2);
}
