// Lint fixture (never compiled): the umbrella crate's `examples/`.
struct Demo;
impl fixture::UsedByExamples for Demo {}
