//! Built-in single-qubit Kraus channels with CPTP validation.
//!
//! A channel is *completely positive and trace preserving* (CPTP) iff
//! its operators satisfy the completeness relation `Σᵢ Kᵢ†Kᵢ = I`.
//! Every constructor here produces operators that satisfy it by
//! construction for parameters in `[0, 1]`; [`KrausChannel::validate`]
//! checks both the parameter range and the relation numerically, so a
//! hand-extended channel set (or a corrupted parameter) is caught
//! before it silently destroys trace preservation mid-simulation.

use std::fmt;

use qdt_circuit::Gate;
use qdt_complex::{Complex, Matrix};

use crate::NoiseError;

/// Tolerance on the Frobenius defect `‖Σ Kᵢ†Kᵢ − I‖_F` accepted by
/// [`KrausChannel::validate`].
pub const CPTP_TOLERANCE: f64 = 1e-9;

/// A built-in single-qubit noise channel, described by its Kraus
/// operators (paper reference \[13\], Grurl/Fuß/Wille).
///
/// Classical *measurement* (readout) error is not a Kraus channel on
/// the state and lives on the model instead: see
/// [`NoiseModel::with_readout_flip`](crate::NoiseModel::with_readout_flip).
///
/// # Example
///
/// ```
/// use qdt_noise::KrausChannel;
///
/// let ch = KrausChannel::Depolarizing { p: 0.05 };
/// ch.validate()?;
/// assert_eq!(ch.kraus_operators().len(), 4);
/// assert!(KrausChannel::BitFlip { p: 1.5 }.validate().is_err());
/// # Ok::<(), qdt_noise::NoiseError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KrausChannel {
    /// Depolarizing: with probability `p` replace the qubit by the
    /// maximally mixed state (I/X/Y/Z errors equally likely).
    Depolarizing {
        /// Error probability in `[0, 1]`.
        p: f64,
    },
    /// Amplitude damping (T1 relaxation) with damping probability
    /// `gamma`.
    AmplitudeDamping {
        /// Decay probability in `[0, 1]`.
        gamma: f64,
    },
    /// Phase damping (pure T2 dephasing) with parameter `lambda`.
    PhaseDamping {
        /// Dephasing strength in `[0, 1]`.
        lambda: f64,
    },
    /// Bit flip: apply X with probability `p`.
    BitFlip {
        /// Flip probability in `[0, 1]`.
        p: f64,
    },
    /// Phase flip: apply Z with probability `p`.
    PhaseFlip {
        /// Flip probability in `[0, 1]`.
        p: f64,
    },
}

impl KrausChannel {
    /// Every channel kind at the same strength — the set property tests
    /// and documentation tables iterate over.
    pub fn all_kinds(p: f64) -> Vec<KrausChannel> {
        vec![
            KrausChannel::Depolarizing { p },
            KrausChannel::AmplitudeDamping { gamma: p },
            KrausChannel::PhaseDamping { lambda: p },
            KrausChannel::BitFlip { p },
            KrausChannel::PhaseFlip { p },
        ]
    }

    /// The channel's short stable name.
    pub fn name(&self) -> &'static str {
        match self {
            KrausChannel::Depolarizing { .. } => "depolarizing",
            KrausChannel::AmplitudeDamping { .. } => "amplitude-damping",
            KrausChannel::PhaseDamping { .. } => "phase-damping",
            KrausChannel::BitFlip { .. } => "bit-flip",
            KrausChannel::PhaseFlip { .. } => "phase-flip",
        }
    }

    /// The channel's strength parameter.
    pub fn parameter(&self) -> f64 {
        match *self {
            KrausChannel::Depolarizing { p }
            | KrausChannel::BitFlip { p }
            | KrausChannel::PhaseFlip { p } => p,
            KrausChannel::AmplitudeDamping { gamma } => gamma,
            KrausChannel::PhaseDamping { lambda } => lambda,
        }
    }

    /// Checks the parameter range and the CPTP completeness relation
    /// `Σ Kᵢ†Kᵢ = I` (within [`CPTP_TOLERANCE`]).
    ///
    /// # Errors
    ///
    /// [`NoiseError::InvalidParameter`] for a parameter outside
    /// `[0, 1]`, [`NoiseError::NotCptp`] if the operators violate the
    /// completeness relation.
    pub fn validate(&self) -> Result<(), NoiseError> {
        let p = self.parameter();
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(NoiseError::InvalidParameter {
                channel: self.name(),
                value: p,
            });
        }
        let defect = completeness_defect(&self.kraus_operators());
        if defect > CPTP_TOLERANCE {
            return Err(NoiseError::NotCptp {
                channel: self.to_string(),
                defect,
            });
        }
        Ok(())
    }

    /// The channel's 2×2 Kraus operators.
    ///
    /// # Panics
    ///
    /// Panics if the parameter lies outside `[0, 1]`
    /// ([`validate`](KrausChannel::validate) first to get an error
    /// instead).
    pub fn kraus_operators(&self) -> Vec<Matrix> {
        let p = self.parameter();
        assert!(
            (0.0..=1.0).contains(&p),
            "channel parameter {p} outside [0,1]"
        );
        let z = Complex::ZERO;
        // `√(1−p)·I` plus `√p`-weighted Paulis for the mixed-unitary
        // channels; the damping channels keep |0⟩ and shrink |1⟩.
        let keep = || Matrix::identity(2).scale(Complex::real((1.0 - p).sqrt()));
        let damped =
            || Matrix::from_rows(2, 2, &[Complex::ONE, z, z, Complex::real((1.0 - p).sqrt())]);
        match self {
            KrausChannel::Depolarizing { .. } => {
                let s = Complex::real((p / 3.0).sqrt());
                vec![
                    keep(),
                    Gate::X.matrix().scale(s),
                    Gate::Y.matrix().scale(s),
                    Gate::Z.matrix().scale(s),
                ]
            }
            KrausChannel::AmplitudeDamping { .. } => vec![
                damped(),
                Matrix::from_rows(2, 2, &[z, Complex::real(p.sqrt()), z, z]),
            ],
            KrausChannel::PhaseDamping { .. } => vec![
                damped(),
                Matrix::from_rows(2, 2, &[z, z, z, Complex::real(p.sqrt())]),
            ],
            KrausChannel::BitFlip { .. } => {
                vec![keep(), Gate::X.matrix().scale(Complex::real(p.sqrt()))]
            }
            KrausChannel::PhaseFlip { .. } => {
                vec![keep(), Gate::Z.matrix().scale(Complex::real(p.sqrt()))]
            }
        }
    }
}

impl fmt::Display for KrausChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name(), self.parameter())
    }
}

/// The Frobenius norm of `Σ Kᵢ†Kᵢ − I` — zero for an exactly CPTP
/// operator set.
///
/// # Panics
///
/// Panics on an empty operator list or non-square operators.
pub fn completeness_defect(kraus: &[Matrix]) -> f64 {
    assert!(!kraus.is_empty(), "empty Kraus operator list");
    let dim = kraus[0].rows();
    let mut sum = Matrix::zeros(dim, dim);
    for k in kraus {
        assert_eq!((k.rows(), k.cols()), (dim, dim), "operators must agree");
        sum = sum.add(&k.dagger().mul(k));
    }
    let mut defect = 0.0f64;
    for r in 0..dim {
        for c in 0..dim {
            let expect = if r == c { Complex::ONE } else { Complex::ZERO };
            defect += (sum.get(r, c) - expect).norm_sqr();
        }
    }
    defect.sqrt()
}

/// Maps a spec-string key (as used in `density(depol=0.01)` or
/// `traj(1000,depol=0.01):dd`) to its channel.
///
/// Recognised keys: `depol`/`depolarizing`, `ad`/`damp`/
/// `amplitude-damping`, `pd`/`dephase`/`phase-damping`,
/// `bitflip`/`bit-flip`, `phaseflip`/`phase-flip`. Returns `None` for
/// unknown keys so callers can report the full spec in their error.
pub fn channel_from_key(key: &str, value: f64) -> Option<KrausChannel> {
    match key {
        "depol" | "depolarizing" => Some(KrausChannel::Depolarizing { p: value }),
        "ad" | "damp" | "amplitude-damping" => {
            Some(KrausChannel::AmplitudeDamping { gamma: value })
        }
        "pd" | "dephase" | "phase-damping" => Some(KrausChannel::PhaseDamping { lambda: value }),
        "bitflip" | "bit-flip" => Some(KrausChannel::BitFlip { p: value }),
        "phaseflip" | "phase-flip" => Some(KrausChannel::PhaseFlip { p: value }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtin_channels_are_cptp() {
        for p in [0.0, 0.01, 0.3, 1.0] {
            for ch in KrausChannel::all_kinds(p) {
                ch.validate().unwrap_or_else(|e| panic!("{ch}: {e}"));
                assert!(completeness_defect(&ch.kraus_operators()) < CPTP_TOLERANCE);
            }
        }
    }

    #[test]
    fn out_of_range_parameters_are_rejected() {
        for bad in [-0.1, 1.1, f64::NAN] {
            for ch in KrausChannel::all_kinds(bad) {
                assert!(ch.validate().is_err(), "{} must reject {bad}", ch.name());
            }
        }
    }

    #[test]
    fn spec_keys_resolve_to_channels() {
        assert_eq!(
            channel_from_key("depol", 0.1),
            Some(KrausChannel::Depolarizing { p: 0.1 })
        );
        assert_eq!(
            channel_from_key("ad", 0.2),
            Some(KrausChannel::AmplitudeDamping { gamma: 0.2 })
        );
        assert_eq!(
            channel_from_key("dephase", 0.3),
            Some(KrausChannel::PhaseDamping { lambda: 0.3 })
        );
        assert!(channel_from_key("thermal", 0.1).is_none());
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(
            KrausChannel::Depolarizing { p: 0.25 }.to_string(),
            "depolarizing(0.25)"
        );
    }
}
