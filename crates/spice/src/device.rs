//! Behavioural 45 nm-flavoured device models: technology parameters,
//! square-law CMOS inverters, and the paper's three-buffer library.
//!
//! The paper's buffers are "two cascaded inverters in a SPICE netlist" with
//! sizes set by transistor widths (§3.2). We reproduce exactly that
//! structure: a [`BufferType`] of size `S` is a small first inverter
//! (`S/3`, at least 1×) driving a second inverter of size `S`. Inverter
//! drive currents follow the long-channel square law with channel-length
//! modulation — enough nonlinearity to produce the curved output waveforms
//! and slew-dependent intrinsic delays the paper's delay model is built
//! around.

use crate::circuit::WireParams;
use cts_util::Fnv1a;
use std::fmt;

/// Process/technology parameters for the behavioural device models.
///
/// The default, [`Technology::nominal_45nm`], is calibrated to 45 nm-like
/// magnitudes: VDD = 1.1 V, ps-scale stage delays, fF-scale gate caps, and
/// an effective 1× drive resistance of a few kΩ so that a 10× buffer drives
/// roughly half a millimetre of 10×-parasitic wire within the paper's
/// 100 ps slew limit — and no buffer in the library survives multi-mm wires
/// (the Fig. 1.1 regime that motivates along-path insertion).
///
/// ```
/// let tech = cts_spice::Technology::nominal_45nm();
/// assert_eq!(tech.vdd(), 1.1);
/// assert_eq!(tech.buffer_library().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    vdd: f64,
    vtn: f64,
    vtp: f64,
    kn_1x: f64,
    kp_1x: f64,
    lambda: f64,
    cg_1x: f64,
    cd_1x: f64,
    gmin: f64,
    wire: WireParams,
}

impl Technology {
    /// The workspace's standard 45 nm-flavoured technology with the paper's
    /// 10× GSRC wire parasitics (0.03 Ω/µm, 0.2 fF/µm).
    pub fn nominal_45nm() -> Technology {
        Technology {
            vdd: 1.1,
            vtn: 0.35,
            vtp: 0.35,
            // 1x saturation current ~0.20 mA at vgs = vdd:
            kn_1x: 0.72e-3,
            kp_1x: 0.72e-3,
            lambda: 0.05,
            cg_1x: 1.2e-15,
            cd_1x: 0.8e-15,
            gmin: 1e-9,
            wire: WireParams::gsrc_10x(),
        }
    }

    /// Supply voltage (V).
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// NMOS threshold voltage (V).
    pub fn vtn(&self) -> f64 {
        self.vtn
    }

    /// PMOS threshold voltage magnitude (V).
    pub fn vtp(&self) -> f64 {
        self.vtp
    }

    /// Gate capacitance of a 1× inverter (F).
    pub fn cg_1x(&self) -> f64 {
        self.cg_1x
    }

    /// Drain (output) parasitic capacitance of a 1× inverter (F).
    pub fn cd_1x(&self) -> f64 {
        self.cd_1x
    }

    /// Convergence-aid leakage conductance applied at every inverter output
    /// (S).
    pub fn gmin(&self) -> f64 {
        self.gmin
    }

    /// Default wire parasitics for this technology.
    pub fn wire(&self) -> WireParams {
        self.wire
    }

    /// Returns a copy of this technology with different wire parasitics.
    pub fn with_wire(mut self, wire: WireParams) -> Technology {
        self.wire = wire;
        self
    }

    /// A 128-bit fingerprint of every parameter of this technology: two
    /// technologies with equal fingerprints simulate every circuit alike
    /// (the buffer library is the same for all of them).
    pub fn fingerprint(&self) -> u128 {
        // Destructured so that a new parameter cannot be left out.
        let Technology {
            vdd,
            vtn,
            vtp,
            kn_1x,
            kp_1x,
            lambda,
            cg_1x,
            cd_1x,
            gmin,
            wire,
        } = self;
        let mut h = Fnv1a::default();
        for x in [
            vdd,
            vtn,
            vtp,
            kn_1x,
            kp_1x,
            lambda,
            cg_1x,
            cd_1x,
            gmin,
            &wire.r_per_um(),
            &wire.c_per_um(),
        ] {
            h.word(x.to_bits());
        }
        h.finish128()
    }

    /// The paper's buffer library: three sizes (10×, 20×, 30×).
    pub fn buffer_library(&self) -> Vec<BufferType> {
        vec![
            BufferType::new("BUF10X", 10.0),
            BufferType::new("BUF20X", 20.0),
            BufferType::new("BUF30X", 30.0),
        ]
    }

    /// Square-law inverter output current and its derivative with respect
    /// to the output voltage.
    ///
    /// Returns `(i_out, di_out/dv_out)`, where `i_out` is the current the
    /// inverter *injects into* its output node (PMOS pull-up positive, NMOS
    /// pull-down negative). Both transistors use the long-channel square law
    /// with channel-length modulation `(1 + λ·v_ds)` applied in both triode
    /// and saturation so the model is C¹ at the saturation boundary.
    pub(crate) fn inverter_current(&self, size: f64, v_in: f64, v_out: f64) -> (f64, f64) {
        let kn = self.kn_1x * size;
        let kp = self.kp_1x * size;

        // NMOS: source at GND. vgs = v_in, vds = v_out.
        let (i_n, g_n) = mosfet_current(kn, self.vtn, self.lambda, v_in, v_out);
        // PMOS: source at VDD. vsg = vdd − v_in, vsd = vdd − v_out.
        let (i_p, g_p) =
            mosfet_current(kp, self.vtp, self.lambda, self.vdd - v_in, self.vdd - v_out);

        // PMOS current flows *into* the node; its derivative wrt v_out picks
        // up a sign from vsd = vdd − v_out.
        let i_out = i_p - i_n;
        let di_dvout = -g_p - g_n;
        (i_out, di_dvout)
    }
}

/// Drain current of a square-law MOSFET and its derivative wrt `vds`.
///
/// For `vds < 0` the triode expression is linearly extended through the
/// origin (the device conducts symmetrically for small reverse bias), which
/// keeps the model C¹ and the Newton iteration stable during small
/// undershoots.
fn mosfet_current(k: f64, vt: f64, lambda: f64, vgs: f64, vds: f64) -> (f64, f64) {
    let vov = vgs - vt;
    if vov <= 0.0 {
        return (0.0, 0.0);
    }
    if vds < 0.0 {
        // Linear extension: i = k·vov·vds, matching the triode slope at 0.
        let g = k * vov;
        return (g * vds, g);
    }
    if vds < vov {
        // Triode with channel-length modulation for C¹ continuity at vdsat.
        let clm = 1.0 + lambda * vds;
        let base = k * (vov * vds - 0.5 * vds * vds);
        let dbase = k * (vov - vds);
        (base * clm, dbase * clm + base * lambda)
    } else {
        let clm = 1.0 + lambda * vds;
        let base = 0.5 * k * vov * vov;
        (base * clm, base * lambda)
    }
}

/// One entry of the buffer library: a named two-stage (inverter pair)
/// buffer of a given drive size.
///
/// Size `S` means the output inverter has `S×` the 1× drive strength and
/// capacitances; the input inverter is `max(S/3, 1)×`, the usual tapering
/// that keeps the buffer's input load small.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferType {
    name: String,
    size: f64,
}

impl BufferType {
    /// Creates a buffer type.
    ///
    /// # Panics
    ///
    /// Panics if `size < 1`.
    pub fn new(name: impl Into<String>, size: f64) -> BufferType {
        let name = name.into();
        assert!(size >= 1.0, "buffer size must be >= 1x, got {size}");
        BufferType { name, size }
    }

    /// Human-readable name (e.g. `"BUF20X"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Drive size of the output stage (multiples of 1×).
    pub fn size(&self) -> f64 {
        self.size
    }

    /// Size of the (tapered) input stage.
    pub fn stage1_size(&self) -> f64 {
        (self.size / 3.0).max(1.0)
    }

    /// Size of the output stage (same as [`BufferType::size`]).
    pub fn stage2_size(&self) -> f64 {
        self.size
    }

    /// Capacitive load this buffer presents at its input (F): the gate
    /// capacitance of its first inverter.
    pub fn input_cap(&self, tech: &Technology) -> f64 {
        tech.cg_1x() * self.stage1_size()
    }

    /// Parasitic capacitance at the buffer output (F): the drain
    /// capacitance of its second inverter.
    pub fn output_cap(&self, tech: &Technology) -> f64 {
        tech.cd_1x() * self.stage2_size()
    }
}

impl fmt::Display for BufferType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}x)", self.name, self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_is_sorted_and_sized() {
        let tech = Technology::nominal_45nm();
        let lib = tech.buffer_library();
        assert_eq!(lib.len(), 3);
        assert!(lib.windows(2).all(|w| w[0].size() < w[1].size()));
        // Bigger buffers present bigger input loads.
        assert!(lib[0].input_cap(&tech) < lib[2].input_cap(&tech));
    }

    #[test]
    fn mosfet_cutoff_triode_saturation() {
        let (i, g) = mosfet_current(1e-3, 0.35, 0.05, 0.2, 0.5);
        assert_eq!((i, g), (0.0, 0.0), "cutoff must carry no current");

        let (i_tri, g_tri) = mosfet_current(1e-3, 0.35, 0.05, 1.1, 0.1);
        assert!(i_tri > 0.0 && g_tri > 0.0);

        let (i_sat, g_sat) = mosfet_current(1e-3, 0.35, 0.05, 1.1, 1.0);
        assert!(i_sat > i_tri, "saturation carries the most current");
        assert!(g_sat < g_tri, "output conductance collapses in saturation");
    }

    #[test]
    fn mosfet_is_continuous_at_saturation_boundary() {
        let (k, vt, l) = (1e-3, 0.35, 0.05);
        let vgs = 1.0;
        let vdsat = vgs - vt;
        let below = mosfet_current(k, vt, l, vgs, vdsat - 1e-9);
        let above = mosfet_current(k, vt, l, vgs, vdsat + 1e-9);
        assert!((below.0 - above.0).abs() < 1e-9);
        assert!((below.1 - above.1).abs() < 1e-6);
    }

    #[test]
    fn mosfet_reverse_bias_is_linear() {
        let (i, g) = mosfet_current(1e-3, 0.35, 0.05, 1.1, -0.05);
        assert!(i < 0.0);
        assert!(g > 0.0);
        // Slope matches the triode slope at the origin.
        let (_, g0) = mosfet_current(1e-3, 0.35, 0.05, 1.1, 1e-12);
        assert!((g - g0).abs() / g0 < 1e-6);
    }

    #[test]
    fn inverter_pulls_correct_direction() {
        let tech = Technology::nominal_45nm();
        // Input low => PMOS on => current pushed into a low output.
        let (i, g) = tech.inverter_current(10.0, 0.0, 0.0);
        assert!(i > 0.0);
        assert!(g <= 0.0);
        // Input high => NMOS on => current pulled out of a high output.
        let (i, _) = tech.inverter_current(10.0, tech.vdd(), tech.vdd());
        assert!(i < 0.0);
        // Settled states carry (almost) no current.
        let (i, _) = tech.inverter_current(10.0, 0.0, tech.vdd());
        assert!(
            i.abs() < 1e-6,
            "input low, output high is the settled state: i = {i}"
        );
    }

    #[test]
    fn inverter_current_scales_with_size() {
        let tech = Technology::nominal_45nm();
        let (i10, _) = tech.inverter_current(10.0, 0.0, 0.3);
        let (i30, _) = tech.inverter_current(30.0, 0.0, 0.3);
        assert!((i30 / i10 - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "buffer size")]
    fn tiny_buffer_rejected() {
        let _ = BufferType::new("BAD", 0.5);
    }
}
