"""Multitask diffusion LMS over clustered networks.

Implements the MAIC strategy (adapt, inter-cluster cooperation,
intra-cluster combination), its closed-form steady-state theory, the
centralized and distributed cooperation-weight optimizers, and a
deterministic Monte-Carlo harness for strategy comparison.
"""

from .harness import (
    KNOWN_STRATEGIES,
    MsdCurve,
    Scenario,
    ScenarioResult,
    SegmentSpec,
    compile_scenario,
    msd_gain_se,
    run_scenario,
)
from .presets import PRESET_NAMES, get_scenario
from .signal_model import SignalModel, sample_parameters
from .theory import TheoryReport, analyze
from .topology import (
    ClusteredTopology,
    averaging_rule_weights,
    cooperation_from_regularizer,
    metropolis_weights,
)
from .weight_opt import solve_p1, solve_p2_all_nodes

__version__ = "0.1.0"

__all__ = [
    "KNOWN_STRATEGIES",
    "PRESET_NAMES",
    "ClusteredTopology",
    "MsdCurve",
    "Scenario",
    "ScenarioResult",
    "SegmentSpec",
    "SignalModel",
    "TheoryReport",
    "analyze",
    "averaging_rule_weights",
    "compile_scenario",
    "cooperation_from_regularizer",
    "get_scenario",
    "metropolis_weights",
    "msd_gain_se",
    "run_scenario",
    "sample_parameters",
    "solve_p1",
    "solve_p2_all_nodes",
    "__version__",
]
