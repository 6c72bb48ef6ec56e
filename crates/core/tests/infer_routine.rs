//! What the one Infer scoring routine decides, pinned through the public
//! API: how often it feeds the degradation ladder, and which checks the
//! sanitizer runs for `OnlineRuntime` callers versus the sharded
//! server's workers.

use std::path::PathBuf;
use std::time::Duration;

use generic_hdc::encoding::GenericEncoderSpec;
use generic_hdc::runtime::{
    CheckpointStore, OnlineRuntime, RejectReason, RetryPolicy, RuntimeConfig, RuntimeError,
};
use generic_hdc::serve::{ServeConfig, Server};
use generic_hdc::HdcPipeline;

const N_FEATURES: usize = 6;

/// A scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("ghdc-infer-routine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("temp dir is creatable");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Rows with every feature in `0..=6`: the trained range.
fn row(i: usize) -> Vec<f64> {
    (0..N_FEATURES).map(|j| ((i * 3 + j) % 7) as f64).collect()
}

fn pipeline() -> HdcPipeline {
    let features: Vec<Vec<f64>> = (0..24).map(row).collect();
    let labels: Vec<usize> = (0..24).map(|i| i % 2).collect();
    let spec = GenericEncoderSpec::new(512, N_FEATURES).with_seed(7);
    HdcPipeline::train(spec, &features, &labels, 2, 3).expect("valid inputs")
}

fn runtime(dir: &TempDir) -> OnlineRuntime {
    let store = CheckpointStore::open(&dir.0, 3, RetryPolicy::default()).expect("dir opens");
    OnlineRuntime::new(pipeline(), store, RuntimeConfig::default()).expect("valid config")
}

fn hits(rt: &OnlineRuntime) -> u64 {
    rt.ladder().hits().iter().sum()
}

/// One ladder observation per batch that scored a row, one answer per
/// clean row; `infer` is a one-row batch, so it adds one hit per
/// answered row — the `tier_hits.sum() == answered` invariant soak's
/// deadline storm gates on.
#[test]
fn the_ladder_observes_each_batch_that_scored_once() {
    let dir = TempDir::new("hits");
    let mut rt = runtime(&dir);

    for k in [1usize, 5, 16] {
        let (hits_before, answered_before) = (hits(&rt), rt.stats().answered);
        let rows: Vec<Vec<f64>> = (0..k).map(row).collect();
        let budget = Some(Duration::from_secs(1));
        assert!(rt.infer_batch(&rows, budget).iter().all(Result::is_ok));
        assert_eq!(
            hits(&rt),
            hits_before + 1,
            "a {k}-row batch is one observation"
        );
        assert_eq!(rt.stats().answered, answered_before + k as u64);
    }

    let (hits_before, rejected_before) = (hits(&rt), rt.stats().rejected);
    let rejected = vec![vec![f64::NAN; N_FEATURES], vec![1.0; 2]];
    assert!(rt.infer_batch(&rejected, None).iter().all(Result::is_err));
    assert_eq!(
        hits(&rt),
        hits_before,
        "a batch with nothing scored feeds no tier"
    );
    assert_eq!(rt.stats().rejected, rejected_before + 2);

    let (hits_before, answered_before) = (hits(&rt), rt.stats().answered);
    for i in 0..7 {
        rt.infer(&row(i), None).expect("clean row");
    }
    assert!(rt.infer(&[f64::INFINITY; N_FEATURES], None).is_err());
    assert_eq!(hits(&rt) - hits_before, 7);
    assert_eq!(rt.stats().answered - answered_before, 7);
}

/// `OnlineRuntime` checks the trained range; the sharded server's
/// workers check width and finiteness only, so a row far outside the
/// trained range is rejected by one and answered by the other.
#[test]
fn only_the_runtime_checks_the_trained_range() {
    // The trained span is 0..=6; this row sits 10 spans past its top.
    let far = vec![6.0 + 10.0 * 6.0; N_FEATURES];

    let dir = TempDir::new("range-runtime");
    let mut rt = runtime(&dir);
    match rt.infer(&far, None) {
        Err(RuntimeError::Rejected(RejectReason::OutOfRange { column: 0, value })) => {
            assert_eq!(value, far[0]);
        }
        other => panic!("expected an out-of-range rejection, got {other:?}"),
    }
    assert_eq!(rt.stats().rejected, 1);

    let dir = TempDir::new("range-server");
    let server = Server::start(runtime(&dir), ServeConfig::default()).expect("server starts");
    let ticket = server.handle().submit(far, None).expect("admitted");
    let answer = ticket.wait().expect("workers answer out-of-range rows");
    assert!(answer.label < 2);
    assert!(!answer.degraded);
    let report = server.drain().expect("drain succeeds");
    assert_eq!(report.workers.answered, 1);
    assert_eq!(report.workers.rejected, 0);
}
