//! Persistence → kernel integration. (The analytic model's check
//! against the discrete-event pipeline simulator is a `spinfer-core`
//! unit test beside the simulator, which is test-only.)

use gpu_sim::GpuSpec;
use spinfer_suite::core::{serialize, SpinferSpmm, TcaBme};
use spinfer_suite::gpu_sim::matrix::{max_abs_diff, random_dense, random_sparse, ValueDist};

/// Serialized weights round-trip through the kernel: encode → bytes →
/// decode → SpMM must equal the original product exactly.
#[test]
fn serialized_weights_produce_identical_spmm_results() {
    let spec = GpuSpec::rtx4090();
    let w = random_sparse(256, 192, 0.55, ValueDist::Uniform, 91);
    let x = random_dense(192, 16, ValueDist::Uniform, 92);
    let enc = TcaBme::encode(&w);
    let restored = serialize::from_bytes(&serialize::to_bytes(&enc)).expect("valid container");
    let kernel = SpinferSpmm::new();
    let a = kernel.run(&spec, &enc, &x);
    let b = kernel.run(&spec, &restored, &x);
    assert_eq!(
        max_abs_diff(a.output.as_ref().unwrap(), b.output.as_ref().unwrap()),
        0.0,
        "restored weights must be bit-identical"
    );
    assert_eq!(a.chain.merged_counters(), b.chain.merged_counters());
}
