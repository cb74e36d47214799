//! `llama7b_ingest`: the weight write path of one LLaMA2-7B projection —
//! prune, encode, quantize, serialize, load, validate, and one INT8
//! launch.

use gpu_sim::matrix::{random_dense, DenseMatrix, ValueDist};
use gpu_sim::spec::GpuSpec;
use spinfer_core::{serialize, SpinferSpmmInt8, TcaBme};
use spinfer_pruning::{wanda_prune, Calibration};

use crate::harness::{sub_seed, Fnv, Metric, Tracer, Workload};

/// The ingest workload at some matrix size.
pub struct Ingest {
    /// Output rows.
    pub m: usize,
    /// Reduction columns.
    pub k: usize,
    /// Calibration samples for Wanda.
    pub samples: usize,
    /// Activation columns of the INT8 launch.
    pub n: usize,
    /// Wanda sparsity.
    pub sparsity: f64,
    /// Simulated device.
    pub spec: GpuSpec,
}

impl Ingest {
    /// The benchmark's configuration: a 4096×4096 LLaMA2-7B projection.
    pub fn llama7b() -> Self {
        Ingest {
            m: 4096,
            k: 4096,
            samples: 32,
            n: 16,
            sparsity: 0.6,
            spec: GpuSpec::rtx4090(),
        }
    }
}

/// Set-up output.
pub struct IngestState {
    dense: DenseMatrix,
    calib: Calibration,
    x: DenseMatrix,
}

/// One op's outputs.
pub struct IngestOut {
    pruned: DenseMatrix,
    bytes: Vec<u8>,
    output: Vec<f32>,
    sim_us: f64,
}

impl Workload for Ingest {
    type State = IngestState;
    type Output = IngestOut;

    fn setup(&self, seed: u64, tr: &Tracer) -> IngestState {
        let (dense, x) = tr.span("gpu_sim.matrix.generate_s", || {
            let std = 1.0 / (self.k as f32).sqrt();
            (
                random_dense(self.m, self.k, ValueDist::Normal { std }, sub_seed(seed, 0)),
                random_dense(self.k, self.n, ValueDist::Uniform, sub_seed(seed, 1)),
            )
        });
        let calib = Calibration::synthetic(self.k, self.samples, sub_seed(seed, 2));
        IngestState { dense, calib, x }
    }

    fn op(&self, st: &IngestState, tr: &Tracer) -> Result<IngestOut, String> {
        let pruned = tr.span("pruning.wanda_s", || {
            wanda_prune(&st.dense, &st.calib, self.sparsity)
        });
        let fp16 = tr.span("core.tca_bme.encode_s", || TcaBme::encode(&pruned));
        let q = tr.span("core.tca_bme.quantize_int8_s", || fp16.quantize_int8());
        let bytes = tr.span("core.serialize.to_bytes_s", || serialize::to_bytes_int8(&q));
        let loaded = tr
            .span("core.serialize.from_bytes_s", || {
                serialize::from_bytes_int8(&bytes)
            })
            .map_err(|e| format!("from_bytes_int8: {e}"))?;
        tr.span("core.tca_bme.validate_s", || loaded.validate())
            .map_err(|e| format!("validate: {e}"))?;
        if loaded != q {
            return Err("loaded container differs from the one serialized".into());
        }
        let run = tr.span("core.spmm_int8.host_s", || {
            SpinferSpmmInt8::new().run(&self.spec, &loaded, &st.x)
        });
        Ok(IngestOut {
            pruned,
            bytes,
            sim_us: run.time_us(),
            output: run.output.ok_or("INT8 launch returned no output")?,
        })
    }

    fn digest(&self, out: &IngestOut) -> u64 {
        Fnv::default()
            .bytes(&out.bytes)
            .f32s(&out.output)
            .f64(out.sim_us)
            .finish()
    }

    fn check(&self, st: &IngestState, out: &IngestOut) -> Result<(), String> {
        let (m, k, n) = (self.m, self.k, self.n);
        // Wanda prunes every row to the same count.
        let keep = k - (k as f64 * self.sparsity).round() as usize;
        let data = out.pruned.as_slice();
        for r in 0..m {
            let nnz = data[r * k..(r + 1) * k]
                .iter()
                .filter(|v| !v.is_zero())
                .count();
            if nnz > keep {
                return Err(format!("row {r} keeps {nnz} > {keep} weights"));
            }
        }
        // The INT8 product against an f64 product of the pruned FP16
        // weights, on every 8th row: only quantization error remains.
        let (mut err2, mut ref2) = (0.0f64, 0.0f64);
        for r in (0..m).step_by(8) {
            for c in 0..n {
                let want: f64 = (0..k)
                    .map(|j| f64::from(data[r * k + j].to_f32()) * f64::from(st.x.get(j, c).to_f32()))
                    .sum();
                let d = f64::from(out.output[r * n + c]) - want;
                err2 += d * d;
                ref2 += want * want;
            }
        }
        let rel = (err2 / ref2.max(f64::MIN_POSITIVE)).sqrt();
        eprintln!("ingest reference: rel L2 {rel:.3e} on {} rows", m.div_ceil(8));
        if !(rel < 0.03) {
            return Err(format!("INT8 output rel L2 error {rel:.3e} vs FP16 reference"));
        }
        Ok(())
    }

    fn sim_metrics(&self, _st: &IngestState, out: &IngestOut) -> Vec<Metric> {
        let dense_bytes = 2 * self.m * self.k;
        vec![
            Metric::sim("sim_step_us", out.sim_us, "us"),
            Metric::sim(
                "weight_bytes_ratio",
                out.bytes.len() as f64 / dense_bytes as f64,
                "ratio",
            ),
            Metric::sim("sim_goodput_rps", self.n as f64 / (out.sim_us * 1e-6), "req/s"),
        ]
    }

    fn layer_metrics(&self, _st: &IngestState, out: &IngestOut, _tr: &Tracer) -> Vec<Metric> {
        vec![
            Metric::sim("core.serialize.bytes", out.bytes.len() as f64, "bytes"),
            Metric::sim("core.spmm_int8.sim_us", out.sim_us, "us"),
        ]
    }
}
