"""Polarization-compensated MDI-QKD simulator and analysis toolkit.

Two senders stream phase-randomized weak coherent pulses through
drifting fiber channels to an untrusted middle node that projects onto
one Bell state.  Otherwise-discarded single-click events from
near-vacuum slots are recycled into per-basis misalignment estimates
that drive electronic polarization controllers in closed loop, while
decoy-state accounting turns the surviving coincidences into
single-photon bounds and a secure key rate.

The curated top-level API re-exports the pieces most callers need; the
submodules expose the full surface (polarization optics, transmitter
decisions, measurement-node models, the compensation loop, decoy-state
bounds, the session engine, the wire protocol, reporting, calibration,
and the command-line interface).
"""

__version__ = "0.1.0"

from .bsm import (BasisSchedule, BsmError, DetectorParams, monte_carlo_pair,
                  pair_gain_and_qber)
from .calibrate import CalibrationError, CalibrationResult, fit_efficiency
from .compensation import (CollectionPlan, CompensationError,
                           ControllerConfig, MisalignmentEstimate,
                           chernoff_failure_bound, plan_collection)
from .config import (ConfigError, available_profiles, config_to_ini,
                     load_profile, parse_config_text, read_config_file)
from .decoy import (DecoyError, GainGrid, KeyRateReport, TallySet,
                    YieldBounds, bound_y11_e11, key_rate,
                    load_reference_half)
from .polarization import (SqueezerBank, misalignment_angles,
                           random_misalignment, squeezer_unitary,
                           state_fidelity)
from .reporting import (ReportingError, RunManifest, build_manifest,
                        emit_traces, read_manifest, recompute_summary,
                        summary_text, write_manifest)
from .session import (SessionConfig, SessionError, SessionFailure,
                      SessionReport, analyze_tallies, run_session)
from .transmitter import (IntensityTable, TransmitterError, key_fraction,
                          recyclable_fraction, reference_intensity_table)

__all__ = [
    "__version__",
    # polarization
    "SqueezerBank", "misalignment_angles", "random_misalignment",
    "squeezer_unitary", "state_fidelity",
    # transmitter
    "IntensityTable", "TransmitterError", "key_fraction",
    "recyclable_fraction", "reference_intensity_table",
    # measurement node
    "BasisSchedule", "BsmError", "DetectorParams", "monte_carlo_pair",
    "pair_gain_and_qber",
    # compensation loop
    "CollectionPlan", "CompensationError", "ControllerConfig",
    "MisalignmentEstimate", "chernoff_failure_bound", "plan_collection",
    # decoy-state analysis
    "DecoyError", "GainGrid", "KeyRateReport", "TallySet", "YieldBounds",
    "bound_y11_e11", "key_rate", "load_reference_half",
    # session
    "SessionConfig", "SessionError", "SessionFailure", "SessionReport",
    "analyze_tallies", "run_session",
    # configuration
    "ConfigError", "available_profiles", "config_to_ini", "load_profile",
    "parse_config_text", "read_config_file",
    # reporting
    "ReportingError", "RunManifest", "build_manifest", "emit_traces",
    "read_manifest", "recompute_summary", "summary_text", "write_manifest",
    # calibration
    "CalibrationError", "CalibrationResult", "fit_efficiency",
]
