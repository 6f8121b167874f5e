//! Hardware-table experiment: Table II (design parameters), with its 80 %
//! power column recomputed from the fitted power model.

use serde::{Deserialize, Serialize};

use nbsmt_hw::power::power_model;
use nbsmt_hw::table2::{design_parameters, DesignPoint};

/// One row of the regenerated Table II.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Design label ("SA", "2T SySMT", "4T SySMT").
    pub design: String,
    /// Peak throughput in GMAC/s.
    pub throughput_gmacs: f64,
    /// Power at 80 % utilization in mW.
    pub power_mw_at_80: f64,
    /// Total core area in mm².
    pub total_area_mm2: f64,
    /// Area ratio relative to the baseline array.
    pub area_ratio: f64,
    /// PE area in µm².
    pub pe_area_um2: f64,
    /// MAC area in µm².
    pub mac_area_um2: f64,
}

/// Regenerates Table II from the design-parameter database and the fitted
/// power model (the 80 % power column is *recomputed* from the model, not
/// copied, so it exercises the fit).
pub fn table2_rows() -> Vec<Table2Row> {
    DesignPoint::all()
        .iter()
        .map(|&point| {
            let p = design_parameters(point);
            Table2Row {
                design: point.label().to_string(),
                throughput_gmacs: p.throughput_gmacs,
                power_mw_at_80: power_model(point).power_mw(0.8),
                total_area_mm2: p.total_area_mm2,
                area_ratio: p.area_ratio_vs_baseline(),
                pe_area_um2: p.pe_area_um2,
                mac_area_um2: p.mac_area_um2,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_reproduces_published_power_and_area() {
        let rows = table2_rows();
        assert_eq!(rows.len(), 3);
        let sa = &rows[0];
        assert!((sa.power_mw_at_80 - 320.0).abs() < 1e-6);
        assert!((sa.total_area_mm2 - 0.220).abs() < 1e-9);
        let t2 = &rows[1];
        assert!((t2.power_mw_at_80 - 429.0).abs() < 1e-6);
        assert!((t2.area_ratio - 1.44).abs() < 0.05);
        let t4 = &rows[2];
        assert!((t4.power_mw_at_80 - 723.0).abs() < 1e-6);
        assert!((t4.throughput_gmacs - 1024.0).abs() < 1e-9);
    }
}
