"""Memory-assisted Markovian thermal processes: simulation and analysis.

Sequences of elementary two-level thermalisations acting on a system
extended by a thermal memory approximate every transformation between
energy-incoherent states that Gibbs-preserving maps allow. The package
provides the state and ordering machinery (``states``), future-cone
vertices and swap combinatorics (``cones``), the protocol engine
(``engine``), closed forms and convergence-rate models (``closed_forms``,
``rates``) and desk-scale experiment drivers (``experiments``, ``cli``).
"""

from .states import (BetaOrder, JointState, ThermoCurve, beta_order,
                     curve_eval, distribution, gibbs_state, joint_gibbs,
                     marginalize, mutual_information, relative_entropy,
                     spectrum, tensor, thermo_curve, thermomajorizes,
                     total_variation)
from .cones import (CapacityError, ExtremePoint, beta_cycle_permutation,
                    beta_swap_matrix, decompose_neighbour_transpositions,
                    extreme_point, future_cone_vertices)
from .engine import (ProtocolSchedule, TrajectoryRecorder, build_schedule,
                     run_composed, run_full_swap, run_truncated,
                     thermalize_memory, two_level_thermalize)
from .closed_forms import (PairGibbsFactors, closed_form_entry_b,
                           closed_form_entry_c, target_residual, start_residual,
                           final_state)
from .rates import (ExponentialRateFit, RateSingularityError,
                    correction_operator, fit_exponential_rate, predict_delta)

__version__ = "0.1.0"
