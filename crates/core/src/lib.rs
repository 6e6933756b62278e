//! HPAC-ML execution control and the public programming model.
//!
//! This crate is the runtime the paper's §IV-B describes. An application
//! annotates a code region with directive strings (the pragmas of Fig. 2);
//! the [`region::Region`] built from them owns the ml-mode decision logic,
//! the model handle, the persistent-store handle and the per-phase timers;
//! a [`Session`] compiled from it owns the data-bridge plans.
//!
//! An invocation is phase-structured to satisfy Rust's aliasing rules (and,
//! incidentally, to mirror the numbered steps of the paper's Fig. 1):
//!
//! ```no_run
//! use hpacml_core::Region;
//! use hpacml_directive::sema::Bindings;
//!
//! # fn do_timestep(t: &[f32], tnew: &mut [f32]) {}
//! # fn main() -> hpacml_core::Result<()> {
//! let source = r#"
//!     #pragma approx tensor functor(ifnctr: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))
//!     #pragma approx tensor functor(ofnctr: [i, j, 0:1] = ([i, j]))
//!     #pragma approx tensor map(to: ifnctr(t[1:N-1, 1:M-1]))
//!     #pragma approx tensor map(from: ofnctr(tnew[1:N-1, 1:M-1]))
//!     #pragma approx ml(predicated:false) in(t) out(tnew) db("d.h5") model("m.hml")
//! "#;
//! let (n, m) = (10usize, 12usize);
//! let region = Region::from_source("stencil", source)?;
//! let bindings = Bindings::new().with("N", n as i64).with("M", m as i64);
//! let t = vec![0.0f32; n * m];
//! let mut tnew = vec![0.0f32; n * m];
//!
//! // Compile once, for these bindings and per-sample shapes.
//! let session = region.session(&bindings, &[("t", &[n, m]), ("tnew", &[n, m])], 1)?;
//!
//! let run = session.invoke()                      // one region invocation
//!     .input("t", &t)?;                           // steps 1–2: gather inputs
//! let mut out = run.run(|| do_timestep(&t, &mut tnew))?;
//!                                                 // steps 3–4: accurate path
//!                                                 //   or model inference
//! out.output("tnew", &mut tnew)?;                 // steps 5–6: scatter or
//!                                                 //   gather outputs
//! out.finish()?;                                  // step 7: persist, time
//! # Ok(())
//! # }
//! ```
//!
//! In `collect` mode the accurate closure runs and the gathered input/output
//! tensors plus the region's execution time are appended to an h5lite file
//! (one group per region, datasets `inputs`, `outputs`, `region_time_ns` —
//! the layout §IV-B specifies). In `infer` mode the closure is skipped and
//! the surrogate loaded from the `model` clause produces the outputs.
//! `predicated` chooses per invocation from a host boolean.
//!
//! Invocation is a *two-phase compiled pipeline*: [`Region::session`]
//! compiles the bridge plans for one (bindings, shapes) combination, the
//! first surrogate run resolves the model handle and derives the
//! input-assembly layout, and every later [`Session::invoke`] reuses them —
//! no lookups, and no heap allocation in steady state. A [`Session`] is the
//! only way to run a region. See the [`session`] module docs for the idiom.
//!
//! The batch dimension is a **runtime parameter**: a session is compiled for
//! *per-sample* shapes plus a `max_batch`, and [`Session::invoke_batch`]
//! folds any `1..=max_batch` logical invocations into one forward pass —
//! bit-identical to the same invocations run one by one. For concurrent
//! callers, [`serve::BatchServer`] coalesces submissions from many threads
//! into shared batched passes. See the [`session`] and [`serve`] module docs.
//!
//! Online **validation** closes the accuracy loop: a [`ValidationPolicy`]
//! attached to a region shadow-executes the original host code on a sampled
//! fraction of invocations, scores the surrogate against it, and adaptively
//! falls back to the (bit-identical) host code when the rolling error
//! exceeds the budget — re-enabling once a window of probes recovers. See
//! the [`validate`] module docs.
//!
//! **Reduced-precision serving** rides the same loop: a [`PrecisionPolicy`]
//! attached with [`Region::set_precision_policy`] quantizes the region's
//! model (bf16 or int8 weights, f32 accumulation), calibrates the quantized
//! rungs on collected input rows from the region db, and installs an
//! `int8 → bf16 → f32 → host` demotion ladder into the validation
//! controller — over-budget windows demote one rung at a time before the
//! surrogate is disabled outright, and sustained healthy windows promote
//! back toward the target.

pub mod error;
pub mod region;
pub mod serve;
pub mod session;
pub mod timing;
pub mod validate;

pub use error::{CoreError, ServeError};
pub use hpacml_faults::retry::RetryPolicy;
pub use hpacml_nn::PrecisionPolicy;
pub use hpacml_tensor::Precision;
pub use region::{PrecisionReport, Region, RegionBuilder};
pub use serve::BatchServer;
pub use session::{PathTaken, Session, SessionOutcome, SessionRun};
pub use timing::RegionStats;
pub use validate::{ErrorMetric, FallbackController, ValidationPolicy};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
