// Lint fixture (never compiled): public items named only inside their own
// crate. Each item kind the rule knows fires once; `users/sibling.rs`, a
// second file of the same crate, names them all, which does not count. The
// last three names appear elsewhere only in a comment, a string literal and
// a `text` block, which are not uses either.
pub fn only_here() -> u32 {
    ONLY_HERE_CONST
}

pub struct OnlyHereStruct;

pub enum OnlyHereEnum {
    A,
}

pub const ONLY_HERE_CONST: u32 = 1;

pub trait OnlyHereTrait {}

pub type OnlyHereAlias = u32;

impl OnlyHereStruct {
    pub fn only_here_method(&self) -> OnlyHereAlias {
        only_here()
    }
}

pub fn praised_in_prose() {}

pub static QUOTED_IN_A_STRING: u32 = 2;

/// ```text
/// shown_in_a_text_block();
/// ```
pub fn shown_in_a_text_block() {}

pub(crate) fn crate_private_helper() {}
