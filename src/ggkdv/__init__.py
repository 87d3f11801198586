"""Spectral analysis, pointwise observability, HUM control synthesis and
feedback stabilization for a linearized coupled-KdV system on the circle."""

import os as _os

# One OpenBLAS thread unless the user set a count: at the sizes here a second
# thread costs time and changes the last digits.  Acts only before numpy loads.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (AliasError, ConstraintViolation, EpsilonUnderflow,
                     GramianSingular, IllConditioned)
from .gram import (ObservationWindow, divided_difference_constants,
                   ingham_report, observability_constants)
from .hum import (ControlPlan, HumSystem, assemble_lambda, bilinear_pairing,
                  control_cost, duality_residual, reachable_defect,
                  solve_control, verify_roundtrip)
from .modal import (GridFunction, ModalState, energy, evolve, forced_evolve,
                    h_norm, project, reconstruct, trace, u_mean, v_mean)
from .signals import ExponentialSignal
from .spectral import (PRESETS, Branch, GapReport, PhysicalParams,
                       SpectrumTable, critical_time, gap_report,
                       resonance_check, spectrum_table, symbol_matrix,
                       trace_amplitudes)
from .stabilize import (DecayReport, FeedbackGains, closed_loop_simulate,
                        feedback_gains, zero_gains)

__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], type(_os))]
__version__ = "0.1.0"
