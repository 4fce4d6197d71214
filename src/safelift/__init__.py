"""Safe adaptive tracking for box-constrained strict-feedback plants.

The package lifts a box-constrained state onto the whole plane through a
strictly increasing sigmoid pair, synthesizes an adaptive backstepping
controller in the lifted coordinates (unknown drift and input-gain
parameters, only the input-gain sign assumed known), and certifies the
closed loop numerically: safe-set invariance, Lyapunov decrease, and
boundedness of the estimates.
"""

from .errors import (ConfigError, DomainViolation, NonFiniteInput,
                     SafeliftError, SingularityDetected, StepRejected)
from .lifting import (EPS_DOMAIN, CoordinateFrame, LiftingFamily, SafeSet,
                      family_pair, get_family, lift, logit_family,
                      tanh_family, unlift)
from .plant import (AssumptionReport, DcMotorParams, LiftedDynamics, PlantDef,
                    PlantShape, check_assumptions, dc_motor, double_integrator,
                    plant_rhs)
from .controller import (ControllerGains, ControllerSignals, EstimatorState,
                         Reference, compile_law, evaluate)
from .simulator import SimConfig, Trajectory, run, run_lifted, step
from .monitor import (CertThresholds, Certificate, SignAdjudication,
                      adjudicate_p2_sign, certify, lyapunov, vdot_analytic)
from .config import ExperimentConfig, apply_overrides, load_config, sweep_rows

__version__ = "0.1.0"

__all__ = [
    "CoordinateFrame", "LiftingFamily", "SafeSet", "EPS_DOMAIN",
    "tanh_family", "logit_family", "get_family", "family_pair",
    "lift", "unlift",
    "PlantDef", "PlantShape", "DcMotorParams", "dc_motor", "double_integrator",
    "plant_rhs", "check_assumptions", "AssumptionReport",
    "LiftedDynamics", "run_lifted",
    "ControllerGains", "ControllerSignals", "EstimatorState", "Reference",
    "compile_law", "evaluate",
    "SimConfig", "Trajectory", "run", "step",
    "Certificate", "CertThresholds", "SignAdjudication",
    "lyapunov", "vdot_analytic", "certify", "adjudicate_p2_sign",
    "ExperimentConfig", "load_config", "apply_overrides", "sweep_rows",
    "SafeliftError", "DomainViolation", "NonFiniteInput", "SingularityDetected",
    "ConfigError", "StepRejected",
    "__version__",
]
