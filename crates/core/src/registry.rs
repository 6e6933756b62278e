//! Process-wide registry of constructed regions.
//!
//! The paper's Table II reports, per benchmark, the lines of code and number
//! of directives HPAC-ML annotations add. Regions register their directive
//! source here when built, so the Table II harness can reproduce those counts
//! from the *actual annotations in this repository* rather than hardcoding.

use parking_lot::Mutex;
use std::sync::OnceLock;

/// What one region contributed in annotation terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionRecord {
    pub region: String,
    /// The raw directive strings as written at the annotation site.
    pub directives: Vec<String>,
}

impl RegionRecord {
    /// Number of directives.
    pub fn directive_count(&self) -> usize {
        self.directives.len()
    }

    /// Annotation lines of code: directive lines after trimming blanks
    /// (multi-line directives with `\` continuations count each line, as
    /// `clang-format` would leave them).
    pub fn loc(&self) -> usize {
        self.directives
            .iter()
            .flat_map(|d| d.lines())
            .filter(|l| !l.trim().is_empty())
            .count()
    }
}

fn registry() -> &'static Mutex<Vec<RegionRecord>> {
    static REG: OnceLock<Mutex<Vec<RegionRecord>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

/// Record a region's annotation (called by `RegionBuilder::build`).
pub fn register(record: RegionRecord) {
    registry().lock().push(record);
}

/// Snapshot of every region constructed so far in this process.
pub fn registered_regions() -> Vec<RegionRecord> {
    registry().lock().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_counts_nonblank_lines() {
        let r = RegionRecord {
            region: "r".into(),
            directives: vec![
                "#pragma approx tensor functor(f: \\\n  [i, 0:1] = ([i]))".into(),
                "#pragma approx ml(infer) in(x) out(y)".into(),
            ],
        };
        assert_eq!(r.directive_count(), 2);
        assert_eq!(r.loc(), 3);
    }

    #[test]
    fn register_and_snapshot() {
        let before = registered_regions().len();
        register(RegionRecord {
            region: "test-reg".into(),
            directives: vec!["ml(collect)".into()],
        });
        let after = registered_regions();
        // The registry is process-global and every `Region::from_source` in
        // a sibling test pushes to it too: at least one more, ours among them.
        assert!(after.len() > before);
        assert!(after.iter().any(|r| r.region == "test-reg"));
    }
}
