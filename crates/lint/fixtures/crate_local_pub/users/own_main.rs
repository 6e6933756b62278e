// Lint fixture (never compiled): the defining crate's `src/main.rs`.
fn main() {
    let _ = fixture::UsedByOwnMain::A;
}
