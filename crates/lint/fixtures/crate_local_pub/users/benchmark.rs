// Lint fixture (never compiled): the standalone `benchmark/src/`.
fn bench() -> fixture::UsedByBenchmark {
    0
}
