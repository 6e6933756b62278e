//! Approx regions: construction, validation, plan compilation and persistence.

use crate::session::{RegionRef, Session};
use crate::timing::RegionStats;
use crate::validate::{ErrorMetric, FallbackController, RegionValidation};
use crate::{CoreError, Result};
use hpacml_bridge::CompiledMap;
use hpacml_directive::ast::{Direction, Directive, MapDirective, MlDirective, MlMode};
use hpacml_directive::parse::parse_directives;
use hpacml_directive::sema::{analyze, Bindings, FunctorInfo};
use hpacml_faults::retry::{RetryOutcome, RetryPolicy};
use hpacml_nn::{InferWorkspace, PrecisionPolicy, SavedModel};
use hpacml_store::H5File;
use hpacml_tensor::{Precision, Tensor};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

/// An annotated code region — the unit HPAC-ML can replace with a surrogate.
///
/// Built once from directive strings, then compiled into [`Session`]s that
/// are invoked many times. All interior state (model handle, store handle,
/// statistics) is behind locks so a region can be shared by reference.
#[derive(Debug)]
pub struct Region {
    name: String,
    functors: BTreeMap<String, FunctorInfo>,
    to_maps: BTreeMap<String, MapDirective>,
    from_maps: BTreeMap<String, MapDirective>,
    ml: MlDirective,
    /// Arrays the model consumes, in `in()`/`inout()` declaration order.
    input_order: Vec<String>,
    /// Arrays the model produces, in `out()`/`inout()` declaration order.
    output_order: Vec<String>,
    model_path: Mutex<Option<PathBuf>>,
    db_path: Mutex<Option<PathBuf>>,
    db: Mutex<Option<H5File>>,
    stats: Mutex<RegionStats>,
    /// The model handle resolved once per path — the one thing sessions
    /// built on this region share; invoke-time inference never hashes a path
    /// into the engine cache.
    model: Mutex<Option<(PathBuf, Arc<SavedModel>)>>,
    /// Online-validation state (policy + sampling sequence + fallback
    /// controller), when a policy is attached.
    validation: Mutex<Option<Arc<RegionValidation>>>,
    /// Operator override: route every invocation onto the host code.
    forced_fallback: AtomicBool,
    /// Precision tag ([`Precision::tag`]) the next surrogate pass serves
    /// at — lock-free mirror of the controller's current ladder rung.
    serve_precision: AtomicU8,
    /// Report of the last [`Region::set_precision_policy`] call.
    precision: Mutex<Option<PrecisionReport>>,
    /// Transient-failure budget for db open/flush and model resolution
    /// (deterministic tick backoff; see `hpacml_faults::retry`).
    retry: Mutex<RetryPolicy>,
}

/// What [`Region::set_precision_policy`] did: the quantization target, how
/// many layers grew reduced-precision packs, and the calibration evidence
/// from the region's collected input rows.
#[derive(Debug, Clone)]
// lint: allow(crate-local-pub) — returned by `Region::precision_report`, read without naming the type
pub struct PrecisionReport {
    /// The coarsest rung of the installed demotion ladder.
    pub target: Precision,
    /// Layers that built reduced-precision weight packs.
    pub quantized_layers: usize,
    /// Collected input rows read from the region db for calibration
    /// (0 when the region has no db or no collected inputs yet).
    pub calib_rows: usize,
    /// Per-rung RMSE of the quantized forward against the f32 forward over
    /// the calibration rows, coarsest rung first. Empty when no rows were
    /// available.
    pub calib_errors: Vec<(Precision, f64)>,
}

impl Region {
    /// Start building a region.
    pub fn builder(name: impl Into<String>) -> RegionBuilder {
        RegionBuilder {
            name: name.into(),
            sources: Vec::new(),
            model: None,
            database: None,
        }
    }

    /// Build a region straight from a block of directive text (the shape of
    /// the paper's Fig. 2 program).
    pub fn from_source(name: impl Into<String>, source: &str) -> Result<Region> {
        Region::builder(name).directive(source).build()
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn ml_mode(&self) -> MlMode {
        self.ml.mode
    }

    pub(crate) fn ml(&self) -> &MlDirective {
        &self.ml
    }

    pub(crate) fn input_order(&self) -> &[String] {
        &self.input_order
    }

    pub(crate) fn output_order(&self) -> &[String] {
        &self.output_order
    }

    /// Default surrogate decision for `predicated` mode, parsed from the
    /// directive's condition text when it is a literal.
    pub(crate) fn default_predicate(&self) -> Option<bool> {
        match self.ml.cond.as_deref().map(str::trim) {
            Some("true") | Some("1") => Some(true),
            Some("false") | Some("0") => Some(false),
            _ => None,
        }
    }

    /// Path of the surrogate model (from the `model` clause unless overridden).
    pub fn model_path(&self) -> Option<PathBuf> {
        self.model_path.lock().clone()
    }

    /// Point the region at a (new) model file, e.g. after a training round.
    ///
    /// Drops the resolved model handle, so a [`Session`] built *after* the
    /// swap serves the new weights. A session that already ran the surrogate
    /// keeps the model it resolved — rebuild it to follow the new path.
    pub fn set_model_path(&self, path: impl Into<PathBuf>) {
        let path = path.into();
        hpacml_nn::InferenceEngine::global().evict(&path);
        *self.model_path.lock() = Some(path);
        *self.model.lock() = None;
    }

    /// Attach a reduced-precision serving policy: reload the region's model,
    /// quantize it for `policy.target` (per-layer bf16/int8 weight packs with
    /// f32 accumulation — see `hpacml_nn::fuse`), **calibrate** the quantized
    /// rungs against the f32 forward on up to `policy.max_calib_rows`
    /// collected input rows from the region db, and install the matching
    /// demotion ladder (`int8 → bf16 → f32 → host`) into the validation
    /// controller when a [`crate::ValidationPolicy`] is attached.
    ///
    /// Subsequent surrogate passes serve at [`Region::serve_precision`],
    /// which the controller demotes/promotes as the rolling validation error
    /// crosses the budget (see [`crate::validate`]). An `F32` target reverts
    /// to full-precision serving and removes the ladder. The quantized model
    /// is installed in the region's resolved-model slot: sessions built
    /// *after* this call serve it, a session that already ran the surrogate
    /// keeps the model it resolved — rebuild it to pick up the packs.
    pub fn set_precision_policy(&self, policy: &PrecisionPolicy) -> Result<PrecisionReport> {
        let path = self.model_path().ok_or_else(|| {
            CoreError::Region(format!(
                "region `{}`: set_precision_policy requires a model(...) clause or set_model_path",
                self.name
            ))
        })?;
        // Fresh load so re-targeting never stacks packs built for an earlier
        // policy; `load_model` compiles the network for inference.
        let mut model = hpacml_nn::serialize::load_model(&path)?;
        let quantized_layers = model.quantize(policy.target);
        let (calib_rows, batch) = self.calibration_batch(&model, policy.max_calib_rows)?;
        let mut calib_errors = Vec::new();
        if let Some(x) = &batch {
            let mut ws = InferWorkspace::new();
            let reference = model.infer_with_at(&mut ws, x, Precision::F32)?.clone();
            for prec in FallbackController::ladder_for(policy.target) {
                if prec == Precision::F32 {
                    break;
                }
                let y = model.infer_with_at(&mut ws, x, prec)?;
                let mut acc = 0.0f64;
                for (r, a) in reference.data().iter().zip(y.data()) {
                    let d = (*r - *a) as f64;
                    acc += d * d;
                }
                let rmse = (acc / reference.numel().max(1) as f64).sqrt();
                calib_errors.push((prec, rmse));
            }
        }
        // Serve the quantized model: sessions built from here on resolve it.
        *self.model.lock() = Some((path, Arc::new(model)));
        self.set_serve_precision(policy.target);
        if let Some(v) = self.validation() {
            v.install_ladder(FallbackController::ladder_for(policy.target));
        }
        let report = PrecisionReport {
            target: policy.target,
            quantized_layers,
            calib_rows,
            calib_errors,
        };
        *self.precision.lock() = Some(report.clone());
        Ok(report)
    }

    /// The precision the next surrogate pass serves at: the policy target,
    /// as demoted/promoted by the validation controller. `F32` when no
    /// precision policy is attached.
    pub fn serve_precision(&self) -> Precision {
        Precision::from_tag(self.serve_precision.load(Ordering::Relaxed)).unwrap_or(Precision::F32)
    }

    pub(crate) fn set_serve_precision(&self, p: Precision) {
        self.serve_precision.store(p.tag(), Ordering::Relaxed);
    }

    /// The report of the last [`Region::set_precision_policy`] call.
    pub fn precision_report(&self) -> Option<PrecisionReport> {
        self.precision.lock().clone()
    }

    /// The quantization target of the attached precision policy, if any.
    pub(crate) fn precision_target(&self) -> Option<Precision> {
        self.precision.lock().as_ref().map(|r| r.target)
    }

    /// Assemble up to `max_rows` collected input rows from the region db
    /// into one forward batch shaped for `model`: row `r` concatenates every
    /// declared input's dataset row `r` (declaration order), mirroring the
    /// session assembly layout. Returns `(rows_read, batch)` — `(0, None)`
    /// when the region has no db, no collected inputs, or the rows do not
    /// tile the model's input shape.
    fn calibration_batch(
        &self,
        model: &SavedModel,
        max_rows: usize,
    ) -> Result<(usize, Option<Tensor>)> {
        if max_rows == 0 || self.db_path().is_none() {
            return Ok((0, None));
        }
        let input_order = &self.input_order;
        let mut rows = 0usize;
        let mut feat_total = 0usize;
        let mut data: Vec<f32> = Vec::new();
        self.with_db(|name, file| {
            let Ok(group) = file.root().group(name).and_then(|g| g.group("inputs")) else {
                return Ok(());
            };
            let mut avail = usize::MAX;
            for input in input_order {
                let Ok(ds) = group.dataset(input) else {
                    return Ok(());
                };
                avail = avail.min(ds.rows());
                feat_total += ds.entry_numel();
            }
            rows = avail.min(max_rows);
            data.reserve(rows * feat_total);
            for r in 0..rows {
                for input in input_order {
                    let ds = group.dataset(input)?;
                    data.extend_from_slice(&ds.read_row_f32(r)?);
                }
            }
            Ok(())
        })?;
        let per_sample: usize = model.spec.input_shape.iter().product::<usize>().max(1);
        let total = rows * feat_total;
        if total == 0 || !total.is_multiple_of(per_sample) {
            return Ok((0, None));
        }
        let mut dims = Vec::with_capacity(1 + model.spec.input_shape.len());
        dims.push(total / per_sample);
        dims.extend_from_slice(&model.spec.input_shape);
        Ok((rows, Some(Tensor::from_vec(data, dims)?)))
    }

    /// Path of the data-collection database.
    pub fn db_path(&self) -> Option<PathBuf> {
        self.db_path.lock().clone()
    }

    /// Redirect data collection to a different file.
    pub fn set_db_path(&self, path: impl Into<PathBuf>) {
        *self.db_path.lock() = Some(path.into());
        *self.db.lock() = None;
    }

    /// Snapshot of accumulated phase timings.
    pub fn stats(&self) -> RegionStats {
        *self.stats.lock()
    }

    /// Zero the timing counters (e.g. between measurement runs).
    pub fn reset_stats(&self) {
        *self.stats.lock() = RegionStats::default();
    }

    pub(crate) fn update_stats(&self, f: impl FnOnce(&mut RegionStats)) {
        f(&mut self.stats.lock());
    }

    /// The region's transient-failure retry budget (db open/flush and
    /// model resolution share it).
    pub fn retry_policy(&self) -> RetryPolicy {
        *self.retry.lock()
    }

    /// Replace the retry budget — e.g. [`RetryPolicy::none`] to fail fast
    /// in tests, or a wider budget for flaky network filesystems.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry.lock() = policy;
    }

    /// Fold one retry outcome into the region's counters.
    fn note_retries<T, E>(&self, out: &RetryOutcome<T, E>) {
        if out.retries() > 0 || out.gave_up() {
            self.update_stats(|s| {
                s.retry_attempts += u64::from(out.retries());
                if out.gave_up() {
                    s.retry_giveups += 1;
                }
            });
        }
    }

    /// Compile the bridge plan for `array` in the given direction, for a
    /// concrete shape and bindings. Reached only while a [`Session`] is
    /// built; the session holds the plan from then on.
    pub(crate) fn plan_for(
        &self,
        array: &str,
        direction: Direction,
        dims: &[usize],
        binds: &Bindings,
    ) -> Result<Arc<CompiledMap>> {
        let map = match direction {
            Direction::To => self.to_maps.get(array),
            Direction::From => self.from_maps.get(array),
        }
        .ok_or_else(|| {
            CoreError::Region(format!(
                "region `{}`: no {} tensor map for array `{array}`",
                self.name,
                match direction {
                    Direction::To => "`to`",
                    Direction::From => "`from`",
                }
            ))
        })?;
        let info = self.functors.get(&map.functor).ok_or_else(|| {
            CoreError::Region(format!(
                "region `{}`: map references undeclared functor `{}`",
                self.name, map.functor
            ))
        })?;
        let plan = hpacml_bridge::compile(info, map, dims, binds)?;
        self.update_stats(|s| s.plan_cache_misses += 1);
        Ok(Arc::new(plan))
    }

    /// Resolve the surrogate model once per path. The first call loads (or
    /// fetches from the engine's per-path cache); later calls clone the held
    /// handle without hashing anything.
    pub(crate) fn resolve_model(&self) -> Result<Arc<SavedModel>> {
        let path = self.model_path().ok_or_else(|| {
            CoreError::Region(format!(
                "region `{}`: surrogate path requires a model(...) clause or set_model_path",
                self.name
            ))
        })?;
        let mut guard = self.model.lock();
        if let Some((held_path, model)) = guard.as_ref() {
            if *held_path == path {
                let model = Arc::clone(model);
                drop(guard);
                self.update_stats(|s| s.model_cache_hits += 1);
                return Ok(model);
            }
        }
        // The engine already retries quick I/O flakes internally; this layer
        // treats a full engine give-up as one failed attempt, so an outage
        // longer than the engine's budget still resolves once the file is
        // readable again.
        let out = self
            .retry_policy()
            .run(|_| hpacml_nn::InferenceEngine::global().load(&path));
        let retries = out.retries();
        let gave_up = out.gave_up();
        let loaded = out.result;
        if let Ok(model) = &loaded {
            *guard = Some((path, Arc::clone(model)));
        }
        drop(guard);
        self.update_stats(|s| {
            s.retry_attempts += u64::from(retries);
            if gave_up {
                s.retry_giveups += 1;
            } else {
                s.model_cache_misses += 1;
            }
        });
        Ok(loaded?)
    }

    /// Compile this region into a reusable [`Session`] for concrete integer
    /// bindings and **per-sample** array shapes — the compile-once /
    /// invoke-many fast path, with a first-class runtime batch dimension.
    ///
    /// `shapes` must name every array declared in `in(...)`, `out(...)` and
    /// `inout(...)` together with the concrete dims of **one sample** (one
    /// logical invocation). `max_batch` fixes the largest runtime batch one
    /// invocation may carry: [`Session::invoke_batch`]`(n)` serves any
    /// `1 <= n <= max_batch` through the same compiled plans — one forward
    /// pass for `n` invocations, no per-batch-size recompilation and no tail
    /// session. All bridge plans are compiled up front; repeated
    /// invocations do no plan lookups, no model-path hashing and —
    /// in steady state — no heap allocation in the gather/inference/scatter
    /// path, for any batch up to `max_batch` (buffers are sized to
    /// `max_batch` once per thread).
    pub fn session<'r>(
        &'r self,
        binds: &Bindings,
        shapes: &[(&str, &[usize])],
        max_batch: usize,
    ) -> Result<Session<'r>> {
        Session::build(RegionRef::Borrowed(self), binds, shapes, max_batch)
    }

    /// [`Region::session`] over a shared region: the session holds the `Arc`
    /// instead of a borrow, so it — and a [`BatchServer`](crate::BatchServer)
    /// built over it — is `'static` and can live in a long-lived structure.
    pub fn session_shared(
        self: &Arc<Self>,
        binds: &Bindings,
        shapes: &[(&str, &[usize])],
        max_batch: usize,
    ) -> Result<Session<'static>> {
        let region = RegionRef::Shared(Arc::clone(self));
        Session::build(region, binds, shapes, max_batch)
    }

    /// Append `n` collected samples from batched tensors — the collection
    /// path of [`Session::invoke_batch`]. Each entry is
    /// `(array name, per-sample dims, batched data)` where the data holds the
    /// `n` per-sample tensors back to back; row `i` of every dataset gets
    /// sample `i`'s slice, so the database is laid out exactly as `n`
    /// sequential invocations would have left it. Each dataset is resolved
    /// once and takes its `n` rows in one append.
    pub(crate) fn record_collection_batch(
        &self,
        n: usize,
        inputs: &[(&str, &[usize], &[f32])],
        outputs: &[(&str, &[usize], &[f32])],
        region_time_ns: u64,
    ) -> Result<()> {
        self.with_db(|name, file| {
            let group = file.root_mut().group_mut(name);
            for (kind, tensors) in [("inputs", inputs), ("outputs", outputs)] {
                let sub = group.group_mut(kind);
                for &(name, dims, data) in tensors {
                    let per: usize = dims.iter().product();
                    let ds = sub.dataset_mut(name, hpacml_store::DType::F32, dims)?;
                    ds.append_f32(&data[..n * per])?;
                }
            }
            let ds = group.dataset_mut("region_time_ns", hpacml_store::DType::F64, &[])?;
            ds.append_f64(&vec![region_time_ns as f64; n])?;
            Ok(())
        })
    }

    /// Run `body` against the region's database handle, lazily creating or
    /// opening the file at `db_path()` (including its parent directory) on
    /// first use. A region with no `db(...)` clause is a no-op `Ok(())`.
    /// Shared by data collection and validation-row recording.
    pub(crate) fn with_db(&self, body: impl FnOnce(&str, &mut H5File) -> Result<()>) -> Result<()> {
        let path = match self.db_path() {
            Some(p) => p,
            None => return Ok(()),
        };
        let mut guard = self.db.lock();
        if guard.is_none() {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).map_err(hpacml_store::StoreError::Io)?;
                }
            }
            let opened = if path.exists() {
                // Reopening an existing file is real I/O and can flake
                // (chaos seam `store.open`); retry under the region budget
                // before surfacing. A create is in-memory and cannot fail.
                let out = self.retry_policy().run(|_| H5File::open(&path));
                self.note_retries(&out);
                match out.result {
                    Ok(file) => file,
                    Err(e) => {
                        drop(guard);
                        self.update_stats(|s| s.db_errors += 1);
                        return Err(e.into());
                    }
                }
            } else {
                H5File::create(&path)
            };
            *guard = Some(opened);
        }
        let res = body(&self.name, guard.as_mut().expect("db initialized above"));
        drop(guard);
        if res.is_err() {
            self.update_stats(|s| s.db_errors += 1);
        }
        res
    }

    pub(crate) fn validation_slot(&self) -> &Mutex<Option<Arc<RegionValidation>>> {
        &self.validation
    }

    pub(crate) fn forced_fallback_flag(&self) -> &AtomicBool {
        &self.forced_fallback
    }

    /// Append one `(invocation, metric, error)` row per validated sample to
    /// the region's database, under `<region>/validation`. A region without
    /// a `db(...)` clause skips recording (the controller still runs).
    pub(crate) fn record_validation_rows(
        &self,
        seq: u64,
        metric: ErrorMetric,
        errors: &[f64],
    ) -> Result<()> {
        if errors.is_empty() {
            return Ok(());
        }
        self.with_db(|name, file| {
            let group = file.root_mut().group_mut(name).group_mut("validation");
            for (col, value) in [("invocation", seq as f64), ("metric", metric.code() as f64)] {
                let ds = group.dataset_mut(col, hpacml_store::DType::F64, &[])?;
                ds.append_f64(&vec![value; errors.len()])?;
            }
            let ds = group.dataset_mut("error", hpacml_store::DType::F64, &[])?;
            ds.append_f64(errors)?;
            Ok(())
        })
    }

    /// Persist collected data to disk. Transient failures retry under the
    /// region's [`RetryPolicy`]; an exhausted budget counts into the
    /// `db_errors`/`retry_giveups` stats and surfaces the final error.
    pub fn flush_db(&self) -> Result<()> {
        let out = {
            let mut guard = self.db.lock();
            match guard.as_mut() {
                None => return Ok(()),
                Some(db) => self.retry_policy().run(|_| db.flush()),
            }
        };
        self.note_retries(&out);
        if out.result.is_err() {
            self.update_stats(|s| s.db_errors += 1);
        }
        out.result.map_err(CoreError::from)
    }

    /// Bytes of collected data currently held (Table III's data-size column).
    pub fn db_size_bytes(&self) -> usize {
        self.db.lock().as_ref().map(|d| d.size_bytes()).unwrap_or(0)
    }
}

/// Builder accumulating directive strings for a region.
// lint: allow(crate-local-pub) — returned by `Region::builder`, which callers chain without naming the type
pub struct RegionBuilder {
    name: String,
    sources: Vec<String>,
    model: Option<PathBuf>,
    database: Option<PathBuf>,
}

impl RegionBuilder {
    /// Add one or more directives (a string may contain several
    /// `#pragma approx ...` lines, with `\` continuations).
    pub fn directive(mut self, src: impl Into<String>) -> Self {
        self.sources.push(src.into());
        self
    }

    /// Override the model path (otherwise taken from the `model` clause).
    pub fn model(mut self, path: impl Into<PathBuf>) -> Self {
        self.model = Some(path.into());
        self
    }

    /// Override the database path (otherwise taken from the `db` clause).
    pub fn database(mut self, path: impl Into<PathBuf>) -> Self {
        self.database = Some(path.into());
        self
    }

    /// Parse, analyze and validate everything.
    pub fn build(self) -> Result<Region> {
        let mut functors = BTreeMap::new();
        let mut to_maps = BTreeMap::new();
        let mut from_maps = BTreeMap::new();
        let mut ml: Option<MlDirective> = None;

        for src in &self.sources {
            for d in parse_directives(src)? {
                match d {
                    Directive::Functor(f) => {
                        let info = analyze(&f)?;
                        if functors.insert(f.name.clone(), info).is_some() {
                            return Err(CoreError::Region(format!(
                                "functor `{}` declared twice",
                                f.name
                            )));
                        }
                    }
                    Directive::Map(m) => {
                        let slot = match m.direction {
                            Direction::To => &mut to_maps,
                            Direction::From => &mut from_maps,
                        };
                        if slot.insert(m.target.array.clone(), m.clone()).is_some() {
                            return Err(CoreError::Region(format!(
                                "array `{}` mapped twice in the same direction",
                                m.target.array
                            )));
                        }
                    }
                    Directive::Ml(m) => {
                        if ml.replace(m).is_some() {
                            return Err(CoreError::Region(
                                "region has more than one ml directive".into(),
                            ));
                        }
                    }
                }
            }
        }

        let ml = ml.ok_or_else(|| {
            CoreError::Region(format!("region `{}` has no `ml` directive", self.name))
        })?;

        // Functor applications embedded in in/out/inout clauses (the
        // grammar's `fa-expr` form of mapped-memory) synthesize tensor maps.
        for m in &ml.embedded_maps {
            let slot = match m.direction {
                Direction::To => &mut to_maps,
                Direction::From => &mut from_maps,
            };
            slot.entry(m.target.array.clone())
                .or_insert_with(|| m.clone());
        }

        // inout arrays reuse the `to` map for the `from` direction when no
        // explicit `from` map exists (this is what lets MiniWeather get away
        // with 3 directives in the paper's Table II).
        for name in &ml.inouts {
            if !from_maps.contains_key(name) {
                if let Some(to) = to_maps.get(name) {
                    let mut derived = to.clone();
                    derived.direction = Direction::From;
                    from_maps.insert(name.clone(), derived);
                }
            }
            if !to_maps.contains_key(name) {
                if let Some(from) = from_maps.get(name) {
                    let mut derived = from.clone();
                    derived.direction = Direction::To;
                    to_maps.insert(name.clone(), derived);
                }
            }
        }

        // Validate the data flow: every in/out name must have a map, and
        // every map must reference a declared functor.
        let mut input_order = ml.inputs.clone();
        input_order.extend(ml.inouts.iter().cloned());
        let mut output_order = ml.outputs.clone();
        output_order.extend(ml.inouts.iter().cloned());
        if input_order.is_empty() && output_order.is_empty() {
            return Err(CoreError::Region(format!(
                "region `{}`: ml directive declares no in/out/inout arrays",
                self.name
            )));
        }
        for name in &input_order {
            if !to_maps.contains_key(name) {
                return Err(CoreError::Region(format!(
                    "region `{}`: `in({name})` has no `map(to: ...)` directive",
                    self.name
                )));
            }
        }
        for name in &output_order {
            if !from_maps.contains_key(name) {
                return Err(CoreError::Region(format!(
                    "region `{}`: `out({name})` has no `map(from: ...)` directive",
                    self.name
                )));
            }
        }
        for m in to_maps.values().chain(from_maps.values()) {
            if !functors.contains_key(&m.functor) {
                return Err(CoreError::Region(format!(
                    "region `{}`: map references undeclared functor `{}`",
                    self.name, m.functor
                )));
            }
        }

        let model_path = self.model.or_else(|| ml.model.clone().map(PathBuf::from));
        let db_path = self
            .database
            .or_else(|| ml.database.clone().map(PathBuf::from));

        Ok(Region {
            name: self.name,
            functors,
            to_maps,
            from_maps,
            ml,
            input_order,
            output_order,
            model_path: Mutex::new(model_path),
            db_path: Mutex::new(db_path),
            db: Mutex::new(None),
            stats: Mutex::new(RegionStats::default()),
            model: Mutex::new(None),
            validation: Mutex::new(None),
            forced_fallback: AtomicBool::new(false),
            serve_precision: AtomicU8::new(Precision::F32.tag()),
            precision: Mutex::new(None),
            retry: Mutex::new(RetryPolicy::default()),
        })
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        // `flush_db` has already retried and counted the failure into
        // `db_errors`; the stats die with the region, so the message is the
        // only remaining signal that collected rows were lost.
        if let Err(e) = self.flush_db() {
            eprintln!(
                "hpacml-core: region `{}`: final db flush failed: {e} \
                 (rows collected since the last successful flush are lost)",
                self.name
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STENCIL: &str = r#"
        #pragma approx tensor functor(ifnctr: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))
        #pragma approx tensor functor(ofnctr: [i, j, 0:1] = ([i, j]))
        #pragma approx tensor map(to: ifnctr(t[1:N-1, 1:M-1]))
        #pragma approx tensor map(from: ofnctr(tnew[1:N-1, 1:M-1]))
        #pragma approx ml(predicated:true) in(t) out(tnew) db("/tmp/hpacml-region-test/d.h5") model("/tmp/hpacml-region-test/m.hml")
    "#;

    #[test]
    fn builds_fig2_region() {
        let r = Region::from_source("stencil", STENCIL).unwrap();
        assert_eq!(r.name(), "stencil");
        assert_eq!(r.ml_mode(), MlMode::Predicated);
        assert_eq!(r.default_predicate(), Some(true));
        assert_eq!(r.input_order(), &["t".to_string()]);
        assert_eq!(r.output_order(), &["tnew".to_string()]);
        assert!(r.model_path().unwrap().ends_with("m.hml"));
        assert!(r.db_path().unwrap().ends_with("d.h5"));
    }

    #[test]
    fn missing_ml_directive_rejected() {
        let err = Region::from_source(
            "no-ml",
            "#pragma approx tensor functor(f: [i, 0:1] = ([i]))",
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Region(s) if s.contains("no `ml` directive")));
    }

    #[test]
    fn unmapped_in_array_rejected() {
        let err = Region::from_source(
            "bad-in",
            r#"
            #pragma approx tensor functor(f: [i, 0:1] = ([i]))
            #pragma approx ml(infer) in(x) out(y) model("m.hml")
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Region(s) if s.contains("in(x)")));
    }

    #[test]
    fn inout_derives_reverse_map() {
        let r = Region::from_source(
            "inout",
            r#"
            #pragma approx tensor functor(st: [c, i, 0:1] = ([c, i]))
            #pragma approx tensor map(to: st(state[0:4, 0:W]))
            #pragma approx ml(collect) inout(state) db("/tmp/hpacml-region-test/io.h5")
            "#,
        )
        .unwrap();
        let binds = Bindings::new().with("W", 5);
        assert!(r.plan_for("state", Direction::To, &[4, 5], &binds).is_ok());
        assert!(r
            .plan_for("state", Direction::From, &[4, 5], &binds)
            .is_ok());
    }

    #[test]
    fn duplicate_functor_rejected() {
        let err = Region::from_source(
            "dup",
            r#"
            #pragma approx tensor functor(f: [i, 0:1] = ([i]))
            #pragma approx tensor functor(f: [i, 0:1] = ([i]))
            #pragma approx ml(collect) in(x) out(y)
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Region(s) if s.contains("declared twice")));
    }

    #[test]
    fn map_with_unknown_functor_rejected() {
        let err = Region::from_source(
            "ghost",
            r#"
            #pragma approx tensor functor(f: [i, 0:1] = ([i]))
            #pragma approx tensor map(to: ghost(x[0:4]))
            #pragma approx tensor map(from: f(y[0:4]))
            #pragma approx ml(infer) in(x) out(y) model("m.hml")
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Region(s) if s.contains("ghost")));
    }

    #[test]
    fn builder_overrides_paths() {
        let r = Region::builder("override")
            .directive(
                r#"
                #pragma approx tensor functor(f: [i, 0:1] = ([i]))
                #pragma approx tensor map(to: f(x[0:4]))
                #pragma approx tensor map(from: f(y[0:4]))
                #pragma approx ml(infer) in(x) out(y) model("original.hml")
                "#,
            )
            .model("/elsewhere/better.hml")
            .database("/elsewhere/data.h5")
            .build()
            .unwrap();
        assert_eq!(
            r.model_path().unwrap(),
            PathBuf::from("/elsewhere/better.hml")
        );
        assert_eq!(r.db_path().unwrap(), PathBuf::from("/elsewhere/data.h5"));
    }
}
