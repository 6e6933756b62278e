// Lint fixture (never compiled): the defining crate's `tests/`.
#[test]
fn own_tests() {
    let _ = fixture::UsedByOwnTests;
}
