"""Experiment configuration files.

Flat INI-style text with sections; every run is fully determined by the
file (no environment lookups), so experiments are reproducible from the
config alone. Schema:

    [plant]
    type = dc_motor            ; or double_integrator
    J = 0.01                   ; dc_motor constants (all optional,
    b = 0.1                    ;  these defaults shown)
    R = 1.0
    Kt = 0.01
    Kb = 0.01
    theta = 1.0                ; double_integrator input gain

    [safe_set]
    x1_max = 2.0
    x2_max = 1.0

    [lifting]
    family = tanh              ; tanh or logit
    family2 = tanh             ; optional distinct family for state 2

    [controller]
    k1 = 1.0
    gamma = 1.0
    alpha = 1.0
    p2_law_sign = 1            ; +1 certified law (default), -1 variant

    [reference]
    x1d = -1.9

    [initial]
    x1 = 0.0
    x2 = 0.9
    p2_hat = 1.0
    theta1_hat = 0.0

    [simulation]
    dt = 0.001
    t_final = 30.0
    log_stride = 1

    [output]
    directory = out            ; resolved against the working directory

    [certificate]              ; optional threshold overrides
    tracking_tol = 0.02

    [sweep]                    ; optional; comma-separated value lists,
    k1 = 0.5, 1.0, 2.0         ;  rows are the cartesian product in
    x1d = -1.9, 1.0            ;  declaration order
"""

from __future__ import annotations

import configparser
import itertools
from dataclasses import dataclass, field, replace
from pathlib import Path

from .controller import ControllerGains, EstimatorState
from .errors import ConfigError, InvalidParams
from .lifting import SafeSet, get_family
from .monitor import CertThresholds
from .plant import DcMotorParams, dc_motor, double_integrator
from .simulator import SimConfig

_SWEEP_KEYS = ("k1", "gamma", "alpha", "x1d", "x1", "x2", "p2_hat", "theta1_hat")


@dataclass
class ExperimentConfig:
    sim: SimConfig
    out_dir: Path
    thresholds: CertThresholds
    sweep: dict[str, list[float]] = field(default_factory=dict)


def _getfloat(sec, key, default=None):
    raw = sec.get(key, None)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key {key!r} in [{sec.name}]")
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{sec.name}] {key} = {raw!r} is not a number") from None


def _build_plant(sec):
    ptype = sec.get("type", "dc_motor").strip()
    if ptype == "dc_motor":
        return dc_motor(DcMotorParams(J=_getfloat(sec, "J", 0.01),
                                      b=_getfloat(sec, "b", 0.1),
                                      R=_getfloat(sec, "R", 1.0),
                                      Kt=_getfloat(sec, "Kt", 0.01),
                                      Kb=_getfloat(sec, "Kb", 0.01)))
    if ptype == "double_integrator":
        return double_integrator(_getfloat(sec, "theta", 1.0))
    raise ConfigError(f"unknown plant type {ptype!r}; expected dc_motor or "
                      f"double_integrator")


def _build_sim(parser) -> SimConfig:
    def section(name):
        if not parser.has_section(name):
            parser.add_section(name)
        return parser[name]

    try:
        plant = _build_plant(section("plant"))
        safe_set = SafeSet(x1_max=_getfloat(section("safe_set"), "x1_max"),
                           x2_max=_getfloat(section("safe_set"), "x2_max"))
        lsec = section("lifting")
        fam1 = get_family(lsec.get("family", "tanh").strip())
        family = (fam1, get_family(lsec["family2"].strip())) \
            if "family2" in lsec else fam1
        csec = section("controller")
        gains = ControllerGains(k1=_getfloat(csec, "k1", 1.0),
                                gamma=_getfloat(csec, "gamma", 1.0),
                                alpha=_getfloat(csec, "alpha", 1.0))
        p2_law_sign = _getfloat(csec, "p2_law_sign", 1.0)
        x1d = _getfloat(section("reference"), "x1d")
        isec = section("initial")
        x0 = (_getfloat(isec, "x1", 0.0), _getfloat(isec, "x2", 0.0))
        est0 = EstimatorState(p2_hat=_getfloat(isec, "p2_hat", 1.0),
                              theta1_hat=_getfloat(isec, "theta1_hat", 0.0))
        ssec = section("simulation")
        stride = ssec.get("log_stride", "1")
        try:
            stride = int(stride)
        except ValueError:
            raise ConfigError(f"log_stride must be an integer, got {stride!r}") from None
        return SimConfig(plant=plant, safe_set=safe_set, gains=gains,
                         x1d=x1d, x0=x0, est0=est0, family=family,
                         dt=_getfloat(ssec, "dt", 1e-3),
                         t_final=_getfloat(ssec, "t_final", 30.0),
                         log_stride=stride, p2_law_sign=p2_law_sign)
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate an experiment file; ConfigError on any defect."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    sim = _build_sim(parser)

    out_dir = Path("out")
    if parser.has_section("output") and parser["output"].get("directory"):
        out_dir = Path(parser["output"]["directory"].strip())

    thresholds = CertThresholds()
    if parser.has_section("certificate"):
        try:
            thresholds = CertThresholds.from_mapping(dict(parser["certificate"]))
        except (InvalidParams, ValueError) as exc:
            raise ConfigError(f"bad [certificate] section: {exc}") from None

    sweep: dict[str, list[float]] = {}
    if parser.has_section("sweep"):
        for key, raw in parser["sweep"].items():
            if key not in _SWEEP_KEYS:
                raise ConfigError(f"[sweep] key {key!r} not sweepable; "
                                  f"allowed: {_SWEEP_KEYS}")
            vals = [v.strip() for v in raw.split(",") if v.strip()]
            try:
                sweep[key] = [float(v) for v in vals]
            except ValueError:
                raise ConfigError(f"[sweep] {key} = {raw!r} is not a comma list "
                                  f"of numbers") from None

    return ExperimentConfig(sim=sim, out_dir=out_dir, thresholds=thresholds,
                            sweep=sweep)


def apply_overrides(sim: SimConfig, overrides: dict[str, float]) -> SimConfig:
    """Rebuild a SimConfig with sweep overrides applied (and revalidated)."""
    def pick(*keys):
        return {k: overrides[k] for k in keys if k in overrides}

    return replace(sim, **pick("x1d"),
                   gains=replace(sim.gains, **pick("k1", "gamma", "alpha")),
                   x0=(overrides.get("x1", sim.x0[0]), overrides.get("x2", sim.x0[1])),
                   est0=replace(sim.est0, **pick("p2_hat", "theta1_hat")))


def sweep_rows(ec: ExperimentConfig):
    """Yield (index, overrides dict) for the cartesian product of the sweep.

    Deterministic: keys in declaration order, values in listed order.
    """
    if not ec.sweep:
        return
    keys = list(ec.sweep)
    for i, combo in enumerate(itertools.product(*(ec.sweep[k] for k in keys))):
        yield i, dict(zip(keys, combo))
