// Lint fixture (never compiled): one of the defining crate's `src/bin/*`.
fn main() {
    println!("{}", fixture::USED_BY_OWN_BIN);
}
