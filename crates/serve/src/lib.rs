//! hpacml-serve — the multi-region serving daemon.
//!
//! Promotes [`hpacml_core::BatchServer`] from an in-process batcher to a
//! daemon with a declarative bootstrap and a live control plane:
//!
//! * [`config`]: an nginx-style config grammar (own zero-dependency
//!   parser) declaring regions, models, batching limits, and
//!   precision/validation policies.
//! * [`RuntimeSnapshot`]: the immutable compiled form of a config — per
//!   region an `Arc<Region>` and a `BatchServer` that owns a session over
//!   it, shadow-probed before it may serve. No thread, no queue.
//! * [`Daemon`]: holds the current snapshot in an `Arc`;
//!   [`Daemon::submit`] joins the region's batch on the caller's thread,
//!   and [`Daemon::apply`] builds the next snapshot off to the side and
//!   swaps it in atomically with zero dropped invocations.
//!
//! ```no_run
//! use hpacml_serve::DaemonBuilder;
//!
//! let daemon = DaemonBuilder::new().bootstrap(
//!     r##"
//!     region demo {
//!         directive "#pragma approx ml(infer) in(x) out(y) model(\"m.hml\")";
//!         input x 3;
//!         output y 1;
//!         max_batch 32;
//!         max_wait 200us;
//!     }
//!     "##,
//! ).unwrap();
//! let mut y = [0.0f32; 1];
//! daemon.submit("demo", &[&[0.1, 0.2, 0.3]], &mut [&mut y]).unwrap();
//! ```

pub mod config;
mod daemon;
mod snapshot;

pub use config::{
    Config, ConfigError, DaemonConfig, Metric, Precision, RegionConfig, ValidationConfig,
};
pub use daemon::{ApplyReport, Daemon, DaemonBuilder, DaemonError, DaemonStats};
pub use snapshot::RuntimeSnapshot;
