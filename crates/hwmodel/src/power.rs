//! Utilization-dependent power model and the synthetic utilization
//! testbench.
//!
//! The paper estimates power with testbenches that zero out activations at a
//! probability corresponding to a target utilization (a PE is "utilized" when
//! both operands of at least one thread are non-zero). Two published
//! operating points anchor the baseline model — 277 mW at 40 % utilization
//! and 320 mW at 80 % — giving a linear static + dynamic decomposition. The
//! SySMT variants keep the static share proportional to their area and fit
//! the dynamic share to their 80 % operating point.

use serde::{Deserialize, Serialize};

use crate::table2::{design_parameters, DesignPoint};

/// A linear power model `P(u) = static + dynamic · u` in milliwatts, with
/// `u` the array utilization in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Static (utilization-independent) power in mW.
    pub static_mw: f64,
    /// Dynamic power at 100 % utilization in mW.
    pub dynamic_mw: f64,
}

impl PowerModel {
    /// Power at the given utilization (clamped to `[0, 1]`).
    pub fn power_mw(&self, utilization: f64) -> f64 {
        self.static_mw + self.dynamic_mw * utilization.clamp(0.0, 1.0)
    }
}

/// The baseline array's two published calibration points:
/// (utilization, power in mW).
pub const BASELINE_CALIBRATION: [(f64, f64); 2] = [(0.4, 277.0), (0.8, 320.0)];

/// Builds the power model of a design point.
///
/// The baseline model is fitted to its two published points; the SySMT
/// models scale the static share by their area ratio and fit the dynamic
/// share so that the published 80 %-utilization power is met exactly.
pub fn power_model(point: DesignPoint) -> PowerModel {
    let [(u0, p0), (u1, p1)] = BASELINE_CALIBRATION;
    let base_dynamic = (p1 - p0) / (u1 - u0);
    let base_static = p0 - base_dynamic * u0;
    match point {
        DesignPoint::Baseline => PowerModel {
            static_mw: base_static,
            dynamic_mw: base_dynamic,
        },
        other => {
            let params = design_parameters(other);
            let static_mw = base_static * params.area_ratio_vs_baseline();
            let dynamic_mw = (params.power_mw_at_80 - static_mw) / 0.8;
            PowerModel {
                static_mw,
                dynamic_mw,
            }
        }
    }
}

/// One row of the synthetic utilization testbench: the target utilization
/// and the power each design draws at that point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestbenchRow {
    /// Target array utilization.
    pub utilization: f64,
    /// Baseline array power in mW.
    pub baseline_mw: f64,
    /// 2T SySMT power in mW.
    pub sysmt2_mw: f64,
    /// 4T SySMT power in mW.
    pub sysmt4_mw: f64,
}

/// Sweeps utilization from 0 to 100 % in `steps` increments, reproducing the
/// synthetic power testbench of §V-A.
pub fn utilization_sweep(steps: usize) -> Vec<TestbenchRow> {
    let baseline = power_model(DesignPoint::Baseline);
    let t2 = power_model(DesignPoint::Sysmt2T);
    let t4 = power_model(DesignPoint::Sysmt4T);
    (0..=steps)
        .map(|i| {
            let u = i as f64 / steps.max(1) as f64;
            TestbenchRow {
                utilization: u,
                baseline_mw: baseline.power_mw(u),
                sysmt2_mw: t2.power_mw(u),
                sysmt4_mw: t4.power_mw(u),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_model_reproduces_published_points() {
        let m = power_model(DesignPoint::Baseline);
        assert!((m.power_mw(0.4) - 277.0).abs() < 1e-9);
        assert!((m.power_mw(0.8) - 320.0).abs() < 1e-9);
    }

    #[test]
    fn sysmt_models_hit_their_80_percent_points() {
        for (point, expected) in [(DesignPoint::Sysmt2T, 429.0), (DesignPoint::Sysmt4T, 723.0)] {
            let m = power_model(point);
            assert!((m.power_mw(0.8) - expected).abs() < 1e-9, "{point:?}");
            assert!(m.static_mw > 0.0 && m.dynamic_mw > 0.0);
        }
    }

    #[test]
    fn paper_headline_power_ratio_holds() {
        // §V-A: doubling utilization from 40% (SA) to 80% (2T) increases
        // power by about 1.5x (429 / 277).
        let sa = power_model(DesignPoint::Baseline).power_mw(0.4);
        let t2 = power_model(DesignPoint::Sysmt2T).power_mw(0.8);
        let ratio = t2 / sa;
        assert!((ratio - 1.55).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn power_is_monotonic_in_utilization() {
        for point in DesignPoint::all() {
            let m = power_model(point);
            let mut prev = 0.0;
            for i in 0..=10 {
                let p = m.power_mw(i as f64 / 10.0);
                assert!(p >= prev);
                prev = p;
            }
        }
    }

    #[test]
    fn utilization_is_clamped() {
        let m = power_model(DesignPoint::Baseline);
        assert_eq!(m.power_mw(-1.0), m.power_mw(0.0));
        assert_eq!(m.power_mw(2.0), m.power_mw(1.0));
    }

    #[test]
    fn sweep_produces_requested_rows() {
        let rows = utilization_sweep(10);
        assert_eq!(rows.len(), 11);
        assert_eq!(rows[0].utilization, 0.0);
        assert_eq!(rows[10].utilization, 1.0);
        // SySMT designs draw more power than the baseline at equal
        // utilization (they have more hardware).
        for r in &rows {
            assert!(r.sysmt2_mw >= r.baseline_mw);
            assert!(r.sysmt4_mw >= r.sysmt2_mw);
        }
    }

    #[test]
    fn power_testbench_has_monotone_columns() {
        let rows = utilization_sweep(20);
        assert_eq!(rows.len(), 21);
        for w in rows.windows(2) {
            assert!(w[1].baseline_mw >= w[0].baseline_mw);
            assert!(w[1].sysmt2_mw >= w[0].sysmt2_mw);
            assert!(w[1].sysmt4_mw >= w[0].sysmt4_mw);
        }
    }
}
