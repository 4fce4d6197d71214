"""The compiled law and the RK4 step against straight-line references.

reference_law is the control law written with every check first, in the
order that names a failure: a non-finite stage state, the guard band, the
virtual gain, the lifted input gain, then an overflowed u. reference_rk4 is
one classical RK4 step with nothing bound ahead of time. The compiled law
and the simulator must agree with them bit for bit on interior states, raise
the same exception with the same text on every failure, and give the same
trajectories.
"""

import dataclasses
import math

import numpy as np
import pytest

import safelift as sl
from safelift.errors import (DomainViolation, NonFiniteInput,
                             SingularityDetected)
from safelift.lifting import EPS_DOMAIN
from safelift.simulator import _rk4

from conftest import NONLINEAR_PLANT


def reference_law(shape, safe_set, family, gains, ref, p2_law_sign=1.0):
    g1, f2, g2 = shape.g1, shape.f2, shape.g2
    fam1, fam2 = sl.family_pair(family)
    un1 = fam1.unsquash
    dun1, dun2 = fam1.unsquash_deriv, fam2.unsquash_deriv
    xb1, xb2 = safe_set.bounds
    lim1 = xb1 * (1.0 - EPS_DOMAIN)
    lim2 = xb2 * (1.0 - EPS_DOMAIN)
    k1, k2 = gains.k1, gains.k2
    gam, alp = gains.gamma, gains.alpha
    sgn = shape.theta2_sign
    z1d = ref.z1d
    isfinite = math.isfinite

    def law(x1, x2, p2h, th1h):
        if not (isfinite(x1) and isfinite(x2) and isfinite(p2h) and isfinite(th1h)):
            raise NonFiniteInput(
                f"non-finite stage state ({x1}, {x2}, p2_hat={p2h}, theta1_hat={th1h})")
        if not (-lim1 < x1 < lim1 and -lim2 < x2 < lim2):
            raise DomainViolation(
                f"stage state ({x1}, {x2}) at or beyond the constraint guard band")
        c1 = x1 / xb1
        c2 = x2 / xb2
        e1 = xb1 * un1(c1) - z1d
        g1v = g1(x1)
        vgain = dun1(c1) * g1v * xb2
        if vgain == 0.0 or not isfinite(vgain):
            raise SingularityDetected(f"virtual gain {vgain!r} at x1={x1}")
        e2 = vgain * c2 + k1 * e1
        d2 = dun2(c2)
        f2v = f2(x1, x2)
        g2v = g2(x1, x2)
        igain = d2 * g2v
        if igain == 0.0 or not isfinite(igain):
            raise SingularityDetected(f"lifted input gain {igain!r} at ({x1}, {x2})")
        inner = (d2 * f2v) * th1h + vgain * k2 * e2
        u = -xb2 * p2h * inner / igain
        if not isfinite(u):
            raise NonFiniteInput(f"control input overflowed to {u!r}")
        return (g1v * x2, f2v, g2v * u,
                p2_law_sign * gam * sgn * c2 * inner,
                alp * c2 * (d2 * f2v),
                e1, e2, u, x1, x2, p2h, th1h)

    return law


def reference_rk4(stage, theta, state, dt, a):
    th1, th2 = theta
    s1, s2, p2h, th1h = state
    h = 0.5 * dt
    a2 = th1 * a[1] + th2 * a[2]
    b = stage(s1 + h * a[0], s2 + h * a2, p2h + h * a[3], th1h + h * a[4])
    b2 = th1 * b[1] + th2 * b[2]
    c = stage(s1 + h * b[0], s2 + h * b2, p2h + h * b[3], th1h + h * b[4])
    c2 = th1 * c[1] + th2 * c[2]
    d = stage(s1 + dt * c[0], s2 + dt * c2, p2h + dt * c[3], th1h + dt * c[4])
    d2 = th1 * d[1] + th2 * d[2]
    w = dt / 6.0
    return (s1 + w * (a[0] + 2.0 * (b[0] + c[0]) + d[0]),
            s2 + w * (a2 + 2.0 * (b2 + c2) + d2),
            p2h + w * (a[3] + 2.0 * (b[3] + c[3]) + d[3]),
            th1h + w * (a[4] + 2.0 * (b[4] + c[4]) + d[4]))


def hexes(values):
    return [float(v).hex() for v in values]


def outcome(fn, *args):
    """('ok', the result's bits) or (exception type, its text)."""
    try:
        return ("ok", hexes(fn(*args)))
    except Exception as exc:  # the type is what is compared
        return (type(exc).__name__, str(exc))


PLANTS = {"dc-motor": sl.dc_motor(), "nonlinear": NONLINEAR_PLANT}
FAMILIES = {"tanh": sl.tanh_family(), "logit": sl.logit_family(),
            "logit-tanh": (sl.logit_family(), sl.tanh_family())}
BOX = sl.SafeSet(2.0, 1.5)
GAINS = sl.ControllerGains(k1=1.3, gamma=0.7, alpha=2.1)


def both_laws(shape, family=FAMILIES["tanh"], sign=1.0):
    ref = sl.Reference.for_target(-1.9, BOX, family)
    args = (shape, BOX, family, GAINS, ref, sign)
    return sl.compile_law(*args), reference_law(*args)


def interior_states(rng, n):
    lim1, lim2 = (b * (1.0 - EPS_DOMAIN) for b in BOX.bounds)
    return list(zip(rng.uniform(-lim1, lim1, n).tolist(),
                    rng.uniform(-lim2, lim2, n).tolist(),
                    rng.uniform(-5.0, 5.0, n).tolist(),
                    rng.uniform(-20.0, 20.0, n).tolist()))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("plant", PLANTS)
def test_interior_states_bit_equal(plant, family, sign):
    # 12 combinations x 200 states: 2400 seeded interior states in all. An
    # RK4 step from a state near the band may leave it; both steps must
    # then refuse alike.
    shape = PLANTS[plant].control_view()
    law, ref_law = both_laws(shape, FAMILIES[family], sign)
    theta = (PLANTS[plant].theta1, PLANTS[plant].theta2)
    rk4 = _rk4(law, PLANTS[plant], 1e-3)
    for s in interior_states(np.random.default_rng(19), 200):
        assert hexes(law(*s)) == hexes(ref_law(*s)), s
        assert outcome(rk4, *s, law(*s)) == outcome(
            reference_rk4, ref_law, theta, s, 1e-3, ref_law(*s)), s


def _shape_with(**shapes):
    return dataclasses.replace(PLANTS["nonlinear"].control_view(), **shapes)


BASE = (0.3, 0.6, 1.2, -2.5)
LIM1, LIM2 = (b * (1.0 - EPS_DOMAIN) for b in BOX.bounds)
NAN, INF = math.nan, math.inf


def _failure_cases():
    cases = []
    for i, name in enumerate(("x1", "x2", "p2_hat", "theta1_hat")):
        for bad in (NAN, INF, -INF):
            s = list(BASE)
            s[i] = bad
            cases.append((f"{name}={bad}", {}, tuple(s), "NonFiniteInput"))
    for x1, x2 in ((LIM1, 0.6), (-LIM1, 0.6), (2.5, 0.6), (-2.5, 0.6),
                   (0.3, LIM2), (0.3, -LIM2), (0.3, 1.7), (0.3, -1.7)):
        cases.append((f"band({x1},{x2})", {}, (x1, x2, 1.2, -2.5), "DomainViolation"))
    for bad in (0.0, INF, NAN):
        cases.append((f"g1->{bad}", dict(g1=lambda x1, v=bad: v), BASE,
                      "SingularityDetected"))
    for bad in (0.0, INF, NAN):
        cases.append((f"g2->{bad}", dict(g2=lambda x1, x2, v=bad: v), BASE,
                      "SingularityDetected"))
    cases.append(("u-overflow", {}, (0.3, 0.6, 1e308, -2.5), "NonFiniteInput"))
    return cases


FAILURES = _failure_cases()


@pytest.mark.parametrize("shapes, state, kind", [c[1:] for c in FAILURES],
                         ids=[c[0] for c in FAILURES])
def test_failure_matrix_same_exception_and_text(shapes, state, kind):
    law, ref_law = both_laws(_shape_with(**shapes))
    got = outcome(law, *state)
    assert got[0] == kind
    assert got == outcome(ref_law, *state)


@pytest.mark.parametrize("shapes, state, kind, text", [
    (dict(g1=lambda x1: 0.0), (0.3, 0.6, NAN, -2.5), "NonFiniteInput",
     "non-finite stage state (0.3, 0.6, p2_hat=nan, theta1_hat=-2.5)"),
    (dict(g1=lambda x1: NAN, g2=lambda x1, x2: 0.0), BASE, "SingularityDetected",
     "virtual gain nan at x1=0.3"),
], ids=["nan-p2_hat-with-zero-g1", "nan-g1-with-zero-g2"])
def test_combined_failures_keep_the_check_order(shapes, state, kind, text):
    # Two faults at once: the first check in the order names the failure.
    law, ref_law = both_laws(_shape_with(**shapes))
    assert outcome(law, *state) == (kind, text) == outcome(ref_law, *state)


def _fig2():
    return dataclasses.replace(sl.load_config("configs/dc_motor_fig2.cfg").sim,
                               t_final=2.0)


def _nonlinear():
    return sl.SimConfig(plant=NONLINEAR_PLANT, safe_set=sl.SafeSet(2.0, 1.0),
                        gains=sl.ControllerGains(1.0, 1.0, 1.0), x1d=-1.5,
                        x0=(0.0, 0.5), est0=sl.EstimatorState(1.0, 0.0),
                        family=(sl.logit_family(), sl.tanh_family()),
                        t_final=2.0, p2_law_sign=-1.0)


@pytest.mark.parametrize("make_cfg", [_fig2, _nonlinear], ids=["fig2", "nonlinear"])
def test_run_equals_reference_loop(make_cfg):
    cfg = make_cfg()
    ref_law = reference_law(cfg.plant.control_view(), cfg.safe_set, cfg.family,
                            cfg.gains, cfg.reference, cfg.p2_law_sign)
    theta = (cfg.plant.theta1, cfg.plant.theta2)
    state = (*cfg.x0, cfg.est0.p2_hat, cfg.est0.theta1_hat)
    rows = []
    for i in range(cfg.n_steps + 1):
        out = ref_law(*state)
        rows.append((i * cfg.dt, *out[5:], *state[2:]))
        if i < cfg.n_steps:
            state = reference_rk4(ref_law, theta, state, cfg.dt, out)
    traj = sl.run(cfg)
    assert traj.completed and len(traj) == len(rows) == 2001
    xb2 = cfg.safe_set.x2_max
    un2 = sl.family_pair(cfg.family)[1].unsquash
    for k, name in enumerate(("t", "e1", "e2", "u", "x1", "x2", "p2_hat",
                              "theta1_hat")):
        assert hexes(getattr(traj, name)) == hexes(r[k] for r in rows), name
    assert hexes(traj.z2) == hexes(xb2 * un2(r[5] / xb2) for r in rows)
