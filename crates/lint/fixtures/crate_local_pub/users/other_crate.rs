// Lint fixture (never compiled): another crate's `src`.
fn other() {
    fixture::used_by_another_crate();
}
