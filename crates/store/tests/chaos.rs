//! Store chaos: kill an *append* at each flush seam.
//!
//! Compiled only with `--features fault-injection`. With generation k
//! committed, the next flush dies at `store.flush.write` (before payload
//! bytes), `.rename` (before the Commit frame that would make the
//! generation visible) or `.sync` (before the `fsync`): the failure is a
//! typed error, a fresh `open` reads generation k exactly — no report, the
//! writer cut its own tail off — and the next un-faulted flush of the *same
//! handle* lands generation k+1 with no duplicate and no missing row.
#![cfg(feature = "fault-injection")]

use hpacml_faults::Plan;
use hpacml_store::{Attr, DType, Group, H5File, StoreError};
use parking_lot::Mutex;
use std::os::unix::fs::MetadataExt;

/// The fault plan is process-global: scenarios serialize on this lock.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn with_plan(plan: Plan, f: impl FnOnce()) {
    let _guard = CHAOS_LOCK.lock();
    hpacml_faults::install(plan);
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    hpacml_faults::clear();
    if let Err(p) = out {
        std::panic::resume_unwind(p);
    }
}

fn collect(root: &mut Group, step: i64) {
    let g = root.group_mut("region");
    g.set_attr("steps", Attr::Int(step));
    g.dataset_mut("x", DType::F32, &[3])
        .unwrap()
        .append_f32(&[step as f32, 0.5, -1.0])
        .unwrap();
    g.dataset_mut("t", DType::F64, &[])
        .unwrap()
        .append_f64(&[100.0 + step as f64])
        .unwrap();
}

fn kill_an_append_at(seam: &str) {
    let dir = std::env::temp_dir().join("hpacml-store-chaos");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{seam}.h5lite"));
    let _ = std::fs::remove_file(&path);
    with_plan(Plan::new(), || {
        // Generations 1 (a rewrite: the file is new) and 2 (an append).
        let mut f = H5File::create(&path);
        for step in 1..=2 {
            collect(f.root_mut(), step);
            f.flush().unwrap();
        }
        let committed = f.root().clone();
        let (inode, bytes) = (
            std::fs::metadata(&path).unwrap().ino(),
            std::fs::read(&path).unwrap(),
        );

        collect(f.root_mut(), 3);
        hpacml_faults::install(Plan::seeded(0x51).fail_once(seam, 0));
        let err = f.flush().unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "typed: {err}");
        assert!(format!("{err}").contains("injected"), "{err}");
        assert_eq!(hpacml_faults::injected_at(seam), 1);
        // It was the append that died, not a rewrite: same file, and the
        // committed bytes are all that is left of it.
        assert_eq!(std::fs::metadata(&path).unwrap().ino(), inode);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let reader = H5File::open(&path).unwrap();
        assert!(reader.recovery().is_none());
        assert_eq!(reader.root(), &committed);
        drop(reader);

        // Outage over: one more step, and the same handle lands both.
        hpacml_faults::install(Plan::new());
        collect(f.root_mut(), 4);
        f.flush().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().ino(), inode, "appended");
        let reader = H5File::open(&path).unwrap();
        assert!(reader.recovery().is_none());
        assert_eq!(reader.root(), f.root());
        let region = reader.root().group("region").unwrap();
        assert_eq!(
            region.dataset("t").unwrap().read_f64().unwrap(),
            vec![101.0, 102.0, 103.0, 104.0]
        );
        assert_eq!(region.dataset("x").unwrap().rows(), 4);
    });
}

#[test]
fn append_killed_before_payload_bytes() {
    kill_an_append_at("store.flush.write");
}

#[test]
fn append_killed_before_the_commit_frame() {
    kill_an_append_at("store.flush.rename");
}

#[test]
fn append_killed_before_the_fsync() {
    kill_an_append_at("store.flush.sync");
}
