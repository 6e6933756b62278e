// Lint fixture (never compiled): another file of the crate that defines the
// items in `fire.rs` — a use from the same crate keeps nothing public.
fn sibling(s: OnlyHereStruct, e: OnlyHereEnum) -> OnlyHereAlias {
    let _: &dyn OnlyHereTrait;
    s.only_here_method() + only_here() + ONLY_HERE_CONST + QUOTED_IN_A_STRING
}
