//! The benchmarking campaign and model-fitting driver — the Model
//! Development phase executed end-to-end against the synthetic testbed.
//!
//! For every instrumented kernel and every grid point, collect
//! `samples_per_point` timing samples (the "multiple timing samples for
//! each system parameter combination ... to account for system noise",
//! §III-A), organize them into a [`SampleTable`], and fit the configured
//! model family. Symbolic regression is restarted across several seeds
//! and the best test-split model wins — the paper's "iterative process"
//! with held-out testing data.

use besst_apps::InstrumentedRegion;
use besst_des::buggify::SplitMix64;
use besst_des::threads::par_map;
use besst_machine::{Machine, Testbed};
use besst_models::{
    mape, powerlaw, symreg, train_test_split, Dataset, Interpolation, ModelBundle, PerfModel,
    SampleTable, SymRegConfig,
};
use std::collections::BTreeMap;

/// Which model family the campaign fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelMethod {
    /// Genetic-programming symbolic regression (the paper's case-study
    /// method).
    SymReg,
    /// Lookup table with the given interpolation (the paper's other
    /// implemented method).
    Table(Interpolation),
    /// Deterministic power-law regression (ablation).
    PowerLaw,
}

/// Campaign controls.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// Timing samples collected per kernel per grid point.
    pub samples_per_point: usize,
    /// Base seed for the testbed runs.
    pub seed: u64,
    /// Model family to fit.
    pub method: ModelMethod,
    /// GP hyper-parameters (SymReg only).
    pub symreg: SymRegConfig,
    /// GP restarts; the best held-out-MAPE model wins (SymReg only).
    pub symreg_restarts: u32,
    /// Held-out fraction for the train/test split (SymReg only).
    pub test_frac: f64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            samples_per_point: 15,
            seed: 0xCA11B,
            method: ModelMethod::SymReg,
            symreg: SymRegConfig::default(),
            symreg_restarts: 4,
            test_frac: 0.2,
        }
    }
}

/// Everything the campaign learned about one kernel.
#[derive(Debug, Clone)]
pub struct KernelData {
    /// Kernel (model) name.
    pub kernel: String,
    /// Raw sample table over the calibrated grid.
    pub table: SampleTable,
    /// Per-point sample means, `(params, mean)`.
    pub point_means: Vec<(Vec<f64>, f64)>,
    /// The fitted model.
    pub model: PerfModel,
    /// MAPE of the fitted model against the per-point means, percent.
    pub fit_mape: f64,
}

/// The campaign output: a model bundle plus per-kernel diagnostics.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Kernel → fitted model (the ArchBEO binding input).
    pub bundle: ModelBundle,
    /// Per-kernel diagnostics, sorted by kernel name.
    pub kernels: Vec<KernelData>,
}

impl Calibration {
    /// Diagnostics for one kernel.
    pub fn kernel(&self, name: &str) -> Option<&KernelData> {
        self.kernels.iter().find(|k| k.kernel == name)
    }
}

/// Run the benchmarking campaign over `grid`, where `regions_at(a, b)`
/// yields the instrumented regions of the application at grid point
/// `(a, b)` (e.g. `(epr, ranks)`).
pub fn calibrate<F>(
    machine: &Machine,
    regions_at: F,
    grid: &[(u32, u32)],
    cfg: &CalibrationConfig,
) -> Calibration
where
    F: Fn(u32, u32) -> Vec<InstrumentedRegion>,
{
    assert!(!grid.is_empty(), "calibration grid is empty");
    assert!(cfg.samples_per_point >= 2, "need at least two samples per point");
    let testbed = Testbed::new(machine);

    // kernel -> (params, samples) per grid point.
    type Cells = Vec<(Vec<f64>, Vec<f64>)>;
    let mut per_kernel: BTreeMap<String, Cells> = BTreeMap::new();
    for (gi, &(a, b)) in grid.iter().enumerate() {
        for region in regions_at(a, b) {
            // Every (kernel, grid point) cell gets an independent,
            // deterministic RNG stream.
            let cell_seed = cfg
                .seed
                .wrapping_add((gi as u64) << 24)
                .wrapping_add(fxhash(&region.kernel));
            let mut rng = SplitMix64::new(cell_seed);
            let samples = region.sample(&testbed, cfg.samples_per_point, &mut rng);
            per_kernel
                .entry(region.kernel.clone())
                .or_default()
                .push((region.params.clone(), samples));
        }
    }

    let mut bundle = ModelBundle::new();
    let mut kernels = Vec::new();
    for (kernel, cells) in per_kernel {
        let n_dims = cells[0].0.len();
        let dim_names: Vec<String> = (0..n_dims).map(|d| format!("p{d}")).collect();
        let dim_refs: Vec<&str> = dim_names.iter().map(|s| s.as_str()).collect();
        let mut table = SampleTable::new(&dim_refs, Interpolation::Multilinear);
        let mut point_means = Vec::new();
        for (params, samples) in &cells {
            table.insert_all(params, samples);
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            point_means.push((params.clone(), mean));
        }

        // Training data: all raw samples (the residual spread then carries
        // machine variance into Monte-Carlo simulation).
        let all_x: Vec<Vec<f64>> = cells
            .iter()
            .flat_map(|(p, s)| std::iter::repeat_n(p.clone(), s.len()))
            .collect();
        let all_y: Vec<f64> = cells.iter().flat_map(|(_, s)| s.iter().copied()).collect();
        let mean_x: Vec<Vec<f64>> = point_means.iter().map(|(p, _)| p.clone()).collect();
        let mean_y: Vec<f64> = point_means.iter().map(|(_, m)| *m).collect();

        let model = match cfg.method {
            ModelMethod::Table(interp) => {
                let mut t = SampleTable::new(&dim_refs, interp);
                for (params, samples) in &cells {
                    t.insert_all(params, samples);
                }
                PerfModel::Table(t)
            }
            ModelMethod::PowerLaw => {
                let law = powerlaw::fit(&mean_x, &mean_y);
                PerfModel::from_power_law(law, &all_x, &all_y)
            }
            ModelMethod::SymReg => {
                let expr = fit_symreg_best(&mean_x, &mean_y, cfg);
                PerfModel::from_expr(expr, &all_x, &all_y)
            }
        };

        let pred: Vec<f64> = mean_x.iter().map(|p| model.predict(p)).collect();
        let fit_mape = mape(&pred, &mean_y);
        bundle.insert(&kernel, model.clone());
        kernels.push(KernelData { kernel, table, point_means, model, fit_mape });
    }
    Calibration { bundle, kernels }
}

/// Fit symbolic regression with restarts; the model with the best
/// held-out MAPE wins (falls back to train MAPE for tiny datasets). The
/// restarts are independent fits and run in parallel; the winner is the
/// first restart with the lowest score, whatever order they finish in.
fn fit_symreg_best(x: &[Vec<f64>], y: &[f64], cfg: &CalibrationConfig) -> besst_models::Expr {
    let data = Dataset::new(x.to_vec(), y.to_vec());
    let fits = par_map(0, 0..cfg.symreg_restarts.max(1), |restart| {
        let (train_idx, test_idx) =
            train_test_split(data.len(), cfg.test_frac, cfg.seed ^ (restart as u64 * 7919));
        let train = data.subset(&train_idx);
        let test = data.subset(&test_idx);
        let mut sr = cfg.symreg.clone();
        sr.seed = cfg.symreg.seed.wrapping_add(restart as u64 * 0x5EED);
        let result = symreg::fit(&train, Some(&test), &sr);
        (result.test_mape.unwrap_or(result.train_mape), result.expr)
    });
    let mut best: Option<(f64, besst_models::Expr)> = None;
    for (score, expr) in fits {
        if best.as_ref().is_none_or(|(s, _)| score < *s) {
            best = Some((score, expr));
        }
    }
    // Final refit criterion: the winning expression, judged on all means.
    best.expect("at least one restart").1
}

/// Fresh "measured" means for validation: independent testbed draws at
/// each grid point (a different seed space from calibration).
pub fn measured_means<F>(
    machine: &Machine,
    regions_at: F,
    grid: &[(u32, u32)],
    samples: usize,
    seed: u64,
) -> BTreeMap<String, Vec<(Vec<f64>, f64)>>
where
    F: Fn(u32, u32) -> Vec<InstrumentedRegion>,
{
    assert!(samples >= 1, "need at least one sample");
    let testbed = Testbed::new(machine);
    let mut out: BTreeMap<String, Vec<(Vec<f64>, f64)>> = BTreeMap::new();
    for (gi, &(a, b)) in grid.iter().enumerate() {
        for region in regions_at(a, b) {
            let cell_seed = seed
                .wrapping_add(0xDEAD_BEEF)
                .wrapping_add((gi as u64) << 24)
                .wrapping_add(fxhash(&region.kernel));
            let mut rng = SplitMix64::new(cell_seed);
            let s = region.sample(&testbed, samples, &mut rng);
            let mean = s.iter().sum::<f64>() / s.len() as f64;
            out.entry(region.kernel.clone()).or_default().push((region.params.clone(), mean));
        }
    }
    out
}

/// Validation MAPE of a calibrated model against measured means.
pub fn validation_mape(
    cal: &Calibration,
    kernel: &str,
    measured: &[(Vec<f64>, f64)],
) -> f64 {
    let model = cal.bundle.get(kernel).unwrap_or_else(|| panic!("no model for {kernel}"));
    let pred: Vec<f64> = measured.iter().map(|(p, _)| model.predict(p)).collect();
    let actual: Vec<f64> = measured.iter().map(|(_, m)| *m).collect();
    mape(&pred, &actual)
}

fn fxhash(s: &str) -> u64 {
    // Tiny deterministic string hash (FNV-1a) for seed derivation.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use besst_apps::lulesh::{self, LuleshConfig};
    use besst_fti::FtiConfig;
    use besst_machine::presets;

    fn small_grid() -> Vec<(u32, u32)> {
        vec![(5, 8), (10, 8), (15, 8), (5, 64), (10, 64), (15, 64)]
    }

    fn regions(machine: &Machine) -> impl Fn(u32, u32) -> Vec<InstrumentedRegion> + '_ {
        move |epr, ranks| {
            lulesh::instrumented_regions(
                &LuleshConfig::new(epr, ranks),
                &FtiConfig::l1_only(40),
                machine,
                36,
            )
        }
    }

    fn quick_cfg(method: ModelMethod) -> CalibrationConfig {
        CalibrationConfig {
            samples_per_point: 6,
            method,
            symreg: SymRegConfig { population: 96, generations: 15, ..Default::default() },
            symreg_restarts: 2,
            ..Default::default()
        }
    }

    #[test]
    fn campaign_produces_models_for_every_kernel() {
        let m = presets::quartz();
        let cal = calibrate(&m, regions(&m), &small_grid(), &quick_cfg(ModelMethod::SymReg));
        assert!(cal.bundle.get(lulesh::kernels::TIMESTEP).is_some());
        assert!(cal.bundle.get(lulesh::kernels::CKPT_L1).is_some());
        assert_eq!(cal.kernels.len(), 2);
        for k in &cal.kernels {
            assert_eq!(k.point_means.len(), 6);
            assert_eq!(k.table.n_points(), 6);
            assert!(k.fit_mape < 60.0, "{}: fit MAPE {}", k.kernel, k.fit_mape);
        }
    }

    #[test]
    fn table_method_is_nearly_exact_on_grid() {
        let m = presets::quartz();
        let cal = calibrate(
            &m,
            regions(&m),
            &small_grid(),
            &quick_cfg(ModelMethod::Table(Interpolation::Multilinear)),
        );
        let k = cal.kernel(lulesh::kernels::TIMESTEP).unwrap();
        assert!(k.fit_mape < 1e-6, "table model reproduces its own means: {}", k.fit_mape);
    }

    #[test]
    fn powerlaw_method_fits_the_trend() {
        let m = presets::quartz();
        let cal = calibrate(&m, regions(&m), &small_grid(), &quick_cfg(ModelMethod::PowerLaw));
        let k = cal.kernel(lulesh::kernels::TIMESTEP).unwrap();
        assert!(k.fit_mape < 20.0, "power law should capture epr^3: {}", k.fit_mape);
    }

    #[test]
    fn validation_uses_fresh_draws() {
        let m = presets::quartz();
        let grid = small_grid();
        let cal = calibrate(&m, regions(&m), &grid, &quick_cfg(ModelMethod::Table(Interpolation::Multilinear)));
        let measured = measured_means(&m, regions(&m), &grid, 6, 42);
        let v = validation_mape(
            &cal,
            lulesh::kernels::TIMESTEP,
            &measured[lulesh::kernels::TIMESTEP],
        );
        // Fresh draws differ from calibration draws, so the validation
        // error is positive but bounded by machine noise.
        assert!(v > 0.0);
        assert!(v < 30.0, "validation MAPE {v}");
    }

    #[test]
    fn calibration_is_deterministic() {
        let m = presets::quartz();
        let cfg = quick_cfg(ModelMethod::PowerLaw);
        let a = calibrate(&m, regions(&m), &small_grid(), &cfg);
        let b = calibrate(&m, regions(&m), &small_grid(), &cfg);
        let ka = a.kernel(lulesh::kernels::TIMESTEP).unwrap();
        let kb = b.kernel(lulesh::kernels::TIMESTEP).unwrap();
        assert_eq!(ka.fit_mape, kb.fit_mape);
        assert_eq!(ka.point_means, kb.point_means);
    }
}
