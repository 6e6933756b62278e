// Lint fixture (never compiled): another crate that mentions two names of
// `fire.rs` only in prose. Call praised_in_prose() for details.
fn prose() -> &'static str {
    "QUOTED_IN_A_STRING"
}
