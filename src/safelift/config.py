"""Experiment configuration files.

Flat INI-style text with sections; every run is fully determined by the
file (no environment lookups), so experiments are reproducible from the
config alone. A key marked required must be set; any other key left out
takes the value shown. A section or key not in this schema, or a
non-empty [DEFAULT] section, is a ConfigError:

    [plant]
    type = dc_motor            ; or double_integrator, below
    J = 0.01                   ; dc_motor constants
    b = 0.1
    R = 1.0
    Kt = 0.01
    Kb = 0.01

    [safe_set]
    x1_max = 2.0               ; required
    x2_max = 1.0               ; required

    [lifting]
    family = tanh              ; tanh or logit
    family2 = tanh             ; state 2's family; left out, family's

    [controller]
    k1 = 1.0
    gamma = 1.0
    alpha = 1.0
    p2_law_sign = 1            ; +1 certified law, -1 variant

    [reference]
    x1d = -1.9                 ; required

    [initial]
    x1 = 0.0
    x2 = 0.0
    p2_hat = 1.0
    theta1_hat = 0.0

    [simulation]
    dt = 0.001
    t_final = 30.0
    log_stride = 1

    [output]
    directory = out            ; resolved against the working directory

    [certificate]              ; thresholds, each finite and positive
    lyap_increment_rel = 1e-6
    vdot_tol = 0.001
    estimate_bound_factor = 10.0
    tracking_tol = 0.02
    final_residual_tol = 0.01

    [sweep]                    ; left out, no sweep; comma-separated
    k1 = 0.5, 1.0, 2.0         ;  value lists, rows are the cartesian
    x1d = -1.9, 1.0            ;  product in declaration order

A double_integrator plant takes its input gain and no dc_motor constant:

    [plant]
    type = double_integrator
    theta = 1.0
"""

from __future__ import annotations

import configparser
import itertools
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .controller import ControllerGains, EstimatorState
from .errors import ConfigError
from .lifting import SafeSet, get_family
from .monitor import CertThresholds
from .plant import DcMotorParams, dc_motor, double_integrator
from .simulator import SimConfig

# Plant type -> ([plant] constants it takes, builder). A builder looks its
# plant function up when it runs, so patching this module's name reaches it.
_PLANTS = {
    "dc_motor": (tuple(f.name for f in fields(DcMotorParams)),
                 lambda **c: dc_motor(DcMotorParams(**c))),
    "double_integrator": (("theta",), lambda **c: double_integrator(**c)),
}

# The one statement of what an experiment file may hold: section -> keys.
_KEYS = {
    "plant": ("type", *itertools.chain(*(keys for keys, _ in _PLANTS.values()))),
    "safe_set": ("x1_max", "x2_max"),
    "lifting": ("family", "family2"),
    "controller": ("k1", "gamma", "alpha", "p2_law_sign"),
    "reference": ("x1d",),
    "initial": ("x1", "x2", "p2_hat", "theta1_hat"),
    "simulation": ("dt", "t_final", "log_stride"),
    "output": ("directory",),
    "certificate": tuple(f.name for f in fields(CertThresholds)),
    "sweep": ("k1", "gamma", "alpha", "x1d", "x1", "x2", "p2_hat", "theta1_hat"),
}


@dataclass
class ExperimentConfig:
    sim: SimConfig
    out_dir: Path
    thresholds: CertThresholds
    sweep: dict[str, list[float]] = field(default_factory=dict)


def _number(sec, key, default=None, kind=float):
    raw = sec.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key {key!r} in [{sec.name}]")
        return default
    try:
        return kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"[{sec.name}] {key} = {raw!r} is not {what}") from None


def _numbers(sec, *keys, kind=float):
    """Keyword arguments for the keys the file sets; the rest keep their defaults."""
    return {key: _number(sec, key, kind=kind) for key in keys if key in sec}


def _build_sim(parser) -> SimConfig:
    psec, lsec, csec, isec, ssec = (parser[name] for name in (
        "plant", "lifting", "controller", "initial", "simulation"))
    ptype = psec.get("type", "dc_motor")
    if ptype not in _PLANTS:
        raise ConfigError(f"unknown plant type {ptype!r}; expected "
                          f"{' or '.join(_PLANTS)}")
    keys, build = _PLANTS[ptype]
    for key in _KEYS["plant"][1:]:
        if key in psec and key not in keys:
            raise ConfigError(f"[plant] key {key!r} does not apply to type {ptype}")
    plant = build(**_numbers(psec, *keys))
    safe_set = SafeSet(x1_max=_number(parser["safe_set"], "x1_max"),
                       x2_max=_number(parser["safe_set"], "x2_max"))
    fam1 = get_family(lsec.get("family", "tanh"))
    fam2 = get_family(lsec["family2"]) if "family2" in lsec else fam1
    family = fam1 if fam2 == fam1 else (fam1, fam2)  # an equal pair is one family
    gains = ControllerGains(*(_number(csec, k, 1.0) for k in ("k1", "gamma", "alpha")))
    x0 = (_number(isec, "x1", 0.0), _number(isec, "x2", 0.0))
    est0 = EstimatorState(_number(isec, "p2_hat", 1.0), _number(isec, "theta1_hat", 0.0))
    return SimConfig(plant=plant, safe_set=safe_set, gains=gains,
                     x1d=_number(parser["reference"], "x1d"), x0=x0, est0=est0,
                     family=family, **_numbers(ssec, "dt", "t_final"),
                     **_numbers(ssec, "log_stride", kind=int),
                     **_numbers(csec, "p2_law_sign"))


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate an experiment file; ConfigError on any defect."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path, encoding="utf-8-sig")  # a byte-order mark is allowed
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    if parser.defaults():
        raise ConfigError(f"[DEFAULT] sets {sorted(parser.defaults())} in every section")
    for name in parser.sections():
        if name not in _KEYS:
            raise ConfigError(f"unknown section [{name}]; allowed: {', '.join(_KEYS)}")
        allowed = {parser.optionxform(key) for key in _KEYS[name]}
        for key in parser[name]:
            if key not in allowed:
                problem = "not sweepable" if name == "sweep" else "unknown"
                raise ConfigError(f"[{name}] key {key!r} {problem}; allowed: "
                                  f"{', '.join(_KEYS[name])}")
    parser.read_dict({name: {} for name in _KEYS if name not in parser})

    sim = _build_sim(parser)
    out_dir = Path(parser["output"].get("directory") or "out")
    values = _numbers(parser["certificate"], *_KEYS["certificate"])
    try:
        thresholds = CertThresholds(**values)
    except ConfigError as exc:
        raise ConfigError(f"bad [certificate] section: {exc}") from None

    sweep: dict[str, list[float]] = {}
    for key, raw in parser["sweep"].items():
        try:
            sweep[key] = [float(v) for v in raw.split(",") if v.strip()]
            if not sweep[key]:
                raise ValueError
        except ValueError:
            raise ConfigError(f"[sweep] {key} = {raw!r} is not a comma list "
                              f"of numbers") from None

    return ExperimentConfig(sim, out_dir, thresholds, sweep)


def apply_overrides(sim: SimConfig, overrides: dict[str, float]) -> SimConfig:
    """Rebuild a SimConfig with sweep overrides applied (and revalidated)."""
    for key in overrides:
        if key not in _KEYS["sweep"]:
            raise ConfigError(f"override key {key!r} not sweepable; allowed: "
                              f"{', '.join(_KEYS['sweep'])}")

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
