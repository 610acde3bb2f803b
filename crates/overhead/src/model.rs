//! Overhead parameter models.
//!
//! All costs are in microseconds. The paper's experiments fix the context
//! switch at `C = 5 µs` ("C is likely to be between 1 and 10 µs in modern
//! processors"), the quantum at `q = 1 ms`, and draw cache-related
//! preemption delays `D(T)` from a distribution with mean 33.3 µs on
//! \[0, 100\] µs.

/// Per-invocation scheduling cost `S_A` as a function of system size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedCostModel {
    /// Constant cost regardless of task/processor count.
    Constant {
        /// `S_EDF` (µs).
        edf_us: f64,
        /// `S_PD²` (µs).
        pd2_us: f64,
    },
    /// Linear-in-N model: `S_EDF(N) = a + b·N`,
    /// `S_PD²(M, N) = a' + (b' + c'·M)·N`.
    Linear {
        /// EDF base cost (µs).
        edf_base_us: f64,
        /// EDF per-task cost (µs).
        edf_per_task_us: f64,
        /// PD² base cost (µs).
        pd2_base_us: f64,
        /// PD² per-task cost (µs).
        pd2_per_task_us: f64,
        /// PD² per-task-per-processor cost (µs).
        pd2_per_task_proc_us: f64,
    },
}

impl SchedCostModel {
    /// A linear model fitted to the paper's Fig. 2: EDF ≈ 2.5 µs and PD² ≈
    /// 8 µs at N = 1000 on one processor; PD² ≈ 50 µs at N = 1000 on 16
    /// processors (933 MHz hardware).
    pub fn paper2003() -> Self {
        SchedCostModel::Linear {
            edf_base_us: 0.5,
            edf_per_task_us: 0.002,
            pd2_base_us: 1.0,
            pd2_per_task_us: 0.004,
            pd2_per_task_proc_us: 0.003,
        }
    }

    /// Calibrates a linear model from measurements — the bridge from this
    /// repository's own Fig. 2 runs to its Fig. 3/4 analysis.
    ///
    /// `edf` holds `(n, µs-per-invocation)` samples from one-processor EDF
    /// runs; `pd2` holds `(m, n, µs-per-slot)` samples. The EDF samples fit
    /// `a + b·n` by least squares; the PD² samples fit
    /// `a' + (b' + c'·m)·n` by least squares over the two derived
    /// regressors `n` and `m·n`.
    ///
    /// # Panics
    ///
    /// Panics with fewer than 2 EDF or 3 PD² samples (underdetermined).
    pub fn fit(edf: &[(usize, f64)], pd2: &[(u32, usize, f64)]) -> Self {
        assert!(edf.len() >= 2, "need ≥ 2 EDF samples");
        assert!(pd2.len() >= 3, "need ≥ 3 PD2 samples");
        let (edf_base_us, edf_per_task_us) = fit_line(edf.iter().map(|&(n, y)| (n as f64, y)));
        let (pd2_base_us, pd2_per_task_us, pd2_per_task_proc_us) = fit_plane(
            pd2.iter()
                .map(|&(m, n, y)| (n as f64, (m.min(16) as f64) * n as f64, y)),
        );
        SchedCostModel::Linear {
            edf_base_us,
            edf_per_task_us,
            pd2_base_us,
            pd2_per_task_us,
            pd2_per_task_proc_us,
        }
    }

    /// `S_EDF(n)` in µs for `n` tasks.
    pub(crate) fn edf_us(&self, n: usize) -> f64 {
        match *self {
            SchedCostModel::Constant { edf_us, .. } => edf_us,
            SchedCostModel::Linear {
                edf_base_us,
                edf_per_task_us,
                ..
            } => edf_base_us + edf_per_task_us * n as f64,
        }
    }

    /// `S_PD²(m, n)` in µs for `m` processors and `n` tasks.
    ///
    /// The processor term saturates at `m = 16` — the largest machine the
    /// paper measured (Fig. 2(b)). Extrapolating the per-processor slope to
    /// the 70–170-processor systems of Fig. 3(c–d) would ascribe PD² a
    /// per-quantum cost the measurements do not support (and creates a
    /// divergent inflation↔processor-count feedback); the paper itself
    /// plugged in measured values, which necessarily came from `m ≤ 16`.
    pub(crate) fn pd2_us(&self, m: u32, n: usize) -> f64 {
        match *self {
            SchedCostModel::Constant { pd2_us, .. } => pd2_us,
            SchedCostModel::Linear {
                pd2_base_us,
                pd2_per_task_us,
                pd2_per_task_proc_us,
                ..
            } => {
                let m_eff = m.min(16) as f64;
                pd2_base_us + (pd2_per_task_us + pd2_per_task_proc_us * m_eff) * n as f64
            }
        }
    }
}

/// Ordinary least squares for `y = a + b·x`.
fn fit_line(samples: impl Iterator<Item = (f64, f64)>) -> (f64, f64) {
    let pts: Vec<(f64, f64)> = samples.collect();
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return (sy / n, 0.0);
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    (a, b)
}

/// Ordinary least squares for `y = a + b·x₁ + c·x₂` via the 3×3 normal
/// equations (Cramer's rule — the system is tiny and well-conditioned for
/// the measurement grids used here).
fn fit_plane(samples: impl Iterator<Item = (f64, f64, f64)>) -> (f64, f64, f64) {
    let pts: Vec<(f64, f64, f64)> = samples.collect();
    let n = pts.len() as f64;
    let (mut s1, mut s2, mut sy) = (0.0, 0.0, 0.0);
    let (mut s11, mut s12, mut s22) = (0.0, 0.0, 0.0);
    let (mut s1y, mut s2y) = (0.0, 0.0);
    for &(x1, x2, y) in &pts {
        s1 += x1;
        s2 += x2;
        sy += y;
        s11 += x1 * x1;
        s12 += x1 * x2;
        s22 += x2 * x2;
        s1y += x1 * y;
        s2y += x2 * y;
    }
    // Normal equations: [n s1 s2; s1 s11 s12; s2 s12 s22]·[a b c] = [sy s1y s2y].
    let det3 = |m: [[f64; 3]; 3]| -> f64 {
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    };
    let a_mat = [[n, s1, s2], [s1, s11, s12], [s2, s12, s22]];
    let d = det3(a_mat);
    if d.abs() < 1e-9 {
        // Degenerate grid (e.g. single m): fall back to a line in x1.
        let (a, b) = fit_line(pts.iter().map(|&(x1, _, y)| (x1, y)));
        return (a, b, 0.0);
    }
    let col = |k: usize| {
        let mut m = a_mat;
        let rhs = [sy, s1y, s2y];
        for (row, &r) in rhs.iter().enumerate() {
            m[row][k] = r;
        }
        det3(m) / d
    };
    (col(0), col(1), col(2))
}

/// Full overhead parameterization for Equation (3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadParams {
    /// Context-switch cost `C` (µs).
    pub ctx_switch_us: f64,
    /// Quantum size `q` (µs). Periods must be multiples of it.
    pub quantum_us: u64,
    /// Scheduling-cost model `S_A`.
    pub sched: SchedCostModel,
}

impl OverheadParams {
    /// The paper's experimental configuration: `C = 5 µs`, `q = 1 ms`, and
    /// the Fig. 2-derived scheduling-cost model.
    pub fn paper2003() -> Self {
        OverheadParams {
            ctx_switch_us: 5.0,
            quantum_us: 1_000,
            sched: SchedCostModel::paper2003(),
        }
    }

    /// Zero overheads — turns Equation (3) into the identity, which the
    /// Fig. 4 "loss due to partitioning alone" series needs.
    pub fn zero() -> Self {
        OverheadParams {
            ctx_switch_us: 0.0,
            quantum_us: 1,
            sched: SchedCostModel::Constant {
                edf_us: 0.0,
                pd2_us: 0.0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_matches_fig2_anchors() {
        let m = SchedCostModel::paper2003();
        // One processor, N = 1000: EDF ≈ 2.5 µs, PD² ≈ 8 µs (< 8 µs in the
        // paper's words).
        assert!((m.edf_us(1000) - 2.5).abs() < 0.1);
        assert!((m.pd2_us(1, 1000) - 8.0).abs() < 0.5);
        // 16 processors, N = 1000: ≈ 50 µs.
        assert!((m.pd2_us(16, 1000) - 53.0).abs() < 5.0);
        // N ≤ 100 on one processor: PD² < 3 µs, "comparable to EDF".
        assert!(m.pd2_us(1, 100) < 3.0);
        // N ≤ 200, 16 processors: < 20 µs.
        assert!(m.pd2_us(16, 200) < 20.0);
    }

    #[test]
    fn costs_grow_with_size() {
        let m = SchedCostModel::paper2003();
        assert!(m.edf_us(500) < m.edf_us(1000));
        assert!(m.pd2_us(2, 500) < m.pd2_us(2, 1000));
        assert!(m.pd2_us(2, 500) < m.pd2_us(8, 500));
    }

    #[test]
    fn fit_recovers_exact_linear_data() {
        // Generate exact samples from a known model and refit.
        let truth = SchedCostModel::paper2003();
        let edf: Vec<(usize, f64)> = [15, 50, 250, 1000]
            .iter()
            .map(|&n| (n, truth.edf_us(n)))
            .collect();
        let pd2: Vec<(u32, usize, f64)> =
            [(1u32, 50usize), (2, 250), (4, 100), (8, 500), (16, 1000)]
                .iter()
                .map(|&(m, n)| (m, n, truth.pd2_us(m, n)))
                .collect();
        let fitted = SchedCostModel::fit(&edf, &pd2);
        for n in [30usize, 100, 750] {
            assert!((fitted.edf_us(n) - truth.edf_us(n)).abs() < 1e-9);
            for m in [1u32, 4, 16] {
                assert!(
                    (fitted.pd2_us(m, n) - truth.pd2_us(m, n)).abs() < 1e-6,
                    "m={m} n={n}: {} vs {}",
                    fitted.pd2_us(m, n),
                    truth.pd2_us(m, n)
                );
            }
        }
    }

    #[test]
    fn fit_tolerates_degenerate_grid() {
        // All PD2 samples at one m: the plane degenerates to a line.
        let pd2 = [(4u32, 100usize, 2.0), (4, 200, 3.0), (4, 300, 4.0)];
        let fitted = SchedCostModel::fit(&[(10, 1.0), (20, 2.0)], &pd2);
        assert!((fitted.pd2_us(4, 200) - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "EDF samples")]
    fn fit_rejects_underdetermined() {
        let _ = SchedCostModel::fit(&[(10, 1.0)], &[(1, 1, 1.0), (2, 2, 2.0), (3, 3, 3.0)]);
    }

    #[test]
    fn pd2_cost_saturates_beyond_measured_machines() {
        let m = SchedCostModel::paper2003();
        assert_eq!(m.pd2_us(16, 500), m.pd2_us(150, 500));
        assert!(m.pd2_us(8, 500) < m.pd2_us(16, 500));
    }

    #[test]
    fn constant_model_ignores_size() {
        let m = SchedCostModel::Constant {
            edf_us: 1.0,
            pd2_us: 2.0,
        };
        assert_eq!(m.edf_us(10), m.edf_us(10_000));
        assert_eq!(m.pd2_us(1, 10), m.pd2_us(64, 10_000));
    }

    #[test]
    fn zero_params_are_zero() {
        let p = OverheadParams::zero();
        assert_eq!(p.ctx_switch_us, 0.0);
        assert_eq!(p.sched.edf_us(100), 0.0);
        assert_eq!(p.sched.pd2_us(4, 100), 0.0);
    }
}
