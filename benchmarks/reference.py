"""Independent reference for the DC-motor closed loop.

Reads an experiment file with the standard library's configparser (the
same schema and defaults as safelift.config, but none of its code) and
integrates the closed-loop equations written out in the README and the
controller docstring with scipy's DOP853 at tight tolerances:

    c_i   = x_i / xi_max
    z1    = x1_max atanh(c1),        e1 = z1 - x1_max atanh(x1d / x1_max)
    vgain = x2_max g1 / (1 - c1^2),   e2 = vgain c2 + k1 e1
    d2    = 1 / (1 - c2^2),           regressor = d2 f2,  igain = d2 g2
    inner = regressor theta1_hat + vgain e2 / k1
    u     = -x2_max p2_hat inner / igain

    x1'         = g1 x2
    x2'         = f2 theta1 + g2 u theta2
    p2_hat'     = p2_law_sign gamma sign(theta2) c2 inner
    theta1_hat' = alpha c2 regressor

with the DC-motor shapes g1 = 1, f2 = x2, g2 = 1 and the hidden constants
theta1 = -(b R - Kb Kt) / (J R), theta2 = Kt / (J R). Only the tanh lifting
family is covered; every benchmark input uses it.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp


@dataclass(frozen=True)
class Scenario:
    theta1: float
    theta2: float
    x1_max: float
    x2_max: float
    k1: float
    gamma: float
    alpha: float
    p2_law_sign: float
    x1d: float
    y0: tuple[float, float, float, float]
    dt: float
    t_final: float
    log_stride: int
    sweep: dict[str, list[float]]

    @property
    def n_steps(self) -> int:
        return max(1, round(self.t_final / self.dt))

    @property
    def z1d(self) -> float:
        return self.x1_max * math.atanh(self.x1d / self.x1_max)

    def with_overrides(self, overrides: dict[str, float]) -> "Scenario":
        """Apply one sweep row (the sweepable keys of the config schema)."""
        x1, x2, p2, th1 = self.y0
        y0 = (overrides.get("x1", x1), overrides.get("x2", x2),
              overrides.get("p2_hat", p2), overrides.get("theta1_hat", th1))
        fields = dict(self.__dict__, y0=y0, sweep={})
        for key in ("k1", "gamma", "alpha", "x1d"):
            if key in overrides:
                fields[key] = overrides[key]
        return Scenario(**fields)

    def log_indices(self) -> np.ndarray:
        """Step indices the simulator logs: every log_stride-th plus the last."""
        n = self.n_steps
        idx = list(range(0, n + 1, self.log_stride))
        if idx[-1] != n:
            idx.append(n)
        return np.array(idx)


def read_scenario(path) -> Scenario:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(path)

    def get(section, key, default):
        if parser.has_section(section) and key in parser[section]:
            return float(parser[section][key])
        return default

    if parser.has_section("plant") and parser["plant"].get("type", "dc_motor") != "dc_motor":
        raise ValueError(f"{path}: the reference covers the dc_motor plant only")
    if parser.has_section("lifting") and (
            parser["lifting"].get("family", "tanh") != "tanh"
            or parser["lifting"].get("family2", "tanh") != "tanh"):
        raise ValueError(f"{path}: the reference covers the tanh family only")
    J, b, R = get("plant", "J", 0.01), get("plant", "b", 0.1), get("plant", "R", 1.0)
    Kt, Kb = get("plant", "Kt", 0.01), get("plant", "Kb", 0.01)
    sweep = {}
    if parser.has_section("sweep"):
        for key, raw in parser["sweep"].items():
            sweep[key] = [float(v) for v in raw.split(",") if v.strip()]
    return Scenario(
        theta1=-(b * R - Kb * Kt) / (J * R), theta2=Kt / (J * R),
        x1_max=get("safe_set", "x1_max", None), x2_max=get("safe_set", "x2_max", None),
        k1=get("controller", "k1", 1.0), gamma=get("controller", "gamma", 1.0),
        alpha=get("controller", "alpha", 1.0),
        p2_law_sign=get("controller", "p2_law_sign", 1.0),
        x1d=get("reference", "x1d", None),
        y0=(get("initial", "x1", 0.0), get("initial", "x2", 0.0),
            get("initial", "p2_hat", 1.0), get("initial", "theta1_hat", 0.0)),
        dt=get("simulation", "dt", 1e-3), t_final=get("simulation", "t_final", 30.0),
        log_stride=int(get("simulation", "log_stride", 1)), sweep=sweep)


def integrate(sc: Scenario):
    """Dense DOP853 solution over [0, n_steps * dt]."""
    X1, X2 = sc.x1_max, sc.x2_max
    th1, th2 = sc.theta1, sc.theta2
    sgn = 1.0 if th2 > 0.0 else -1.0
    k1, gam, alp, psign, z1d = sc.k1, sc.gamma, sc.alpha, sc.p2_law_sign, sc.z1d

    def rhs(t, y):
        x1, x2, p2h, th1h = y
        c1, c2 = x1 / X1, x2 / X2
        e1 = X1 * math.atanh(c1) - z1d
        vgain = X2 / (1.0 - c1 * c1)
        e2 = vgain * c2 + k1 * e1
        d2 = 1.0 / (1.0 - c2 * c2)
        regressor = d2 * x2
        inner = regressor * th1h + vgain * e2 / k1
        u = -X2 * p2h * inner / d2
        return (x2, x2 * th1 + u * th2,
                psign * gam * sgn * c2 * inner, alp * c2 * regressor)

    t_end = sc.n_steps * sc.dt
    sol = solve_ivp(rhs, (0.0, t_end), sc.y0, method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol


def sweep_row_figures(sc: Scenario) -> tuple[float, float]:
    """(tracking_error_final, sup_p2_hat) as sweep.csv defines them.

    The supremum is taken over the logged samples, as the simulator's
    certificate takes it.
    """
    sol = integrate(sc)
    p2 = sol.sol(sc.log_indices() * sc.dt)[2]
    return abs(sol.y[0, -1] - sc.x1d), float(np.max(np.abs(p2)))
