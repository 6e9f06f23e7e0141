import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f3ornits.errors import ConfigError, ContractViolation, DivergenceError
from f3ornits.poly import Polynomial
from f3ornits.subsystem import (
    MICRO_DIVISOR,
    Capabilities,
    SubsystemSpec,
    effective_max_degree,
    step_to,
)


def const_input(v):
    return Polynomial(0.0, (v,))


def make_decay(rate=1.0):
    # x' = -rate * x, y = x
    return SubsystemSpec(
        label="decay",
        n_states=1,
        n_in=0,
        n_out=1,
        f=lambda t, x, u: [-rate * x[0]],
        g=lambda t, x, u: [x[0]],
        x_init=(1.0,),
    )


def make_integrator():
    # x' = u, y = x : integrates its input exactly (RK4 is exact on cubics)
    return SubsystemSpec(
        label="integ",
        n_states=1,
        n_in=1,
        n_out=1,
        f=lambda t, x, u: [u[0]],
        g=lambda t, x, u: [x[0]],
        x_init=(0.0,),
    )


# -------------------------------------------------------------- capabilities

def test_capability_validation():
    with pytest.raises(ConfigError):
        Capabilities(max_input_degree=-1)
    with pytest.raises(ConfigError):
        Capabilities(imposed_step=0.0)
    with pytest.raises(ConfigError, match="imposed_step"):
        Capabilities(imposed_step=math.nan)
    Capabilities(imposed_step=0.5)


@pytest.mark.parametrize(
    "m_k,plain,hard",
    [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 2, 3), (7, 2, 3)],
)
def test_degree_ceilings(m_k, plain, hard):
    caps = Capabilities(max_input_degree=m_k)
    assert effective_max_degree(caps) == plain
    assert caps.smoothing_capable == (m_k >= 3)
    # step_to accepts exactly the input degrees up to the hard ceiling
    spec = make_integrator()
    for degree in range(4):
        poly = Polynomial(0.0, (0.0,) * degree + (1.0,))
        if degree <= hard:
            step_to(spec, caps, spec.x_init, [poly], 0.0, 0.1)
        else:
            with pytest.raises(ContractViolation, match=f"allows {m_k}"):
                step_to(spec, caps, spec.x_init, [poly], 0.0, 0.1)


def test_spec_rejects_negative_arities():
    for n_in, n_out in ((-1, 0), (0, -1)):
        with pytest.raises(ConfigError, match="arities"):
            SubsystemSpec(
                "neg", 0, n_in, n_out,
                lambda t, x, u: [], lambda t, x, u: [], (),
            )


def test_micro_step_rule():
    # the window over MICRO_DIVISOR, capped by the spec's own bound; an
    # explicit micro step overrides both
    calls = []

    def f(t, x, u):
        calls.append(t)
        return [-x[0]]

    spec = SubsystemSpec("count", 1, 0, 1, f, lambda t, x, u: [x[0]], (1.0,))
    for bound, micro_step, steps in (
        (None, None, 50),
        (1e-3, None, 1000),
        (0.5, None, 50),
        (1e-3, 0.1, 10),
    ):
        calls.clear()
        step_to(replace(spec, max_micro_step=bound), Capabilities(),
                spec.x_init, [], 0.0, 1.0, micro_step)
        assert len(calls) == 4 * steps


@pytest.mark.parametrize("bound", [math.nan, math.inf, 0.0, -1.0])
def test_spec_rejects_meaningless_micro_step_bounds(bound):
    with pytest.raises(ConfigError, match="bounded.*max_micro_step"):
        SubsystemSpec("bounded", 1, 0, 1, lambda t, x, u: [0.0],
                      lambda t, x, u: [x[0]], (0.0,), bound)


# ------------------------------------------------------------------- step_to

def test_zero_dynamics_keeps_state():
    spec = SubsystemSpec(
        "still", 2, 0, 1,
        f=lambda t, x, u: [0.0, 0.0],
        g=lambda t, x, u: [x[0] + x[1]],
        x_init=(2.0, 3.0),
    )
    x, y = step_to(spec, Capabilities(), spec.x_init, [], 0.0, 0.7)
    assert x == [2.0, 3.0]
    assert y == (5.0,)


def test_integrates_cubic_input_exactly():
    # RK4 integrates polynomials of degree <= 3 with zero truncation error
    spec = make_integrator()
    p = Polynomial(0.0, (1.0, -2.0, 3.0, 0.5))
    x, y = step_to(spec, Capabilities(), spec.x_init, [p], 0.0, 0.8)
    exact = 0.8 - 0.8 ** 2 + 0.8 ** 3 + 0.5 * 0.8 ** 4 / 4.0
    assert y[0] == pytest.approx(exact, rel=1e-12)


def test_decay_accuracy():
    spec = replace(make_decay(2.0), max_micro_step=1e-3)
    x, y = step_to(spec, Capabilities(), spec.x_init, [], 0.0, 1.0)
    assert y[0] == pytest.approx(math.exp(-2.0), rel=1e-9)


def test_lands_exactly_on_target():
    spec = make_decay()
    # a target that is not an integer multiple of the micro step: the last
    # micro step is shortened, so the state is x(t) at exactly the target
    t = 0.0123456789
    x, _ = step_to(spec, Capabilities(), spec.x_init, [], 0.0, t)
    assert x[0] == pytest.approx(math.exp(-t), rel=1e-12)


def test_determinism_bitwise():
    spec = make_integrator()
    p = Polynomial(0.3, (0.1, 2.0, -1.0))
    a = step_to(spec, Capabilities(), spec.x_init, [p], 0.25, 1.73)
    b = step_to(spec, Capabilities(), spec.x_init, [p], 0.25, 1.73)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_micro_macro_separation():
    # halving the micro step moves a macro step's outputs by < 1e-7 relative
    spec = make_decay(3.0)
    _, coarse = step_to(spec, Capabilities(), spec.x_init, [], 0.0, 0.5)
    _, fine = step_to(
        spec, Capabilities(), spec.x_init, [], 0.0, 0.5, micro_step=0.0005
    )
    rel = abs(coarse[0] - fine[0]) / abs(fine[0])
    assert rel < 1e-7


def test_no_rollback():
    spec = make_decay()
    with pytest.raises(ValueError):
        step_to(spec, Capabilities(), spec.x_init, [], 1.0, 1.0)
    with pytest.raises(ValueError):
        step_to(spec, Capabilities(), spec.x_init, [], 1.0, 0.5)


@pytest.mark.parametrize("micro_step", [math.nan, math.inf, 0.0, -1.0])
def test_rejects_meaningless_micro_steps(micro_step):
    # a NaN step used to spin in the grid layout until memory ran out, and
    # an infinite one silently took a single step
    spec = make_decay()
    with pytest.raises(ValueError, match="finite and positive"):
        step_to(spec, Capabilities(), spec.x_init, [], 0.0, 1.0, micro_step)


def test_input_arity_checked():
    spec = make_integrator()
    with pytest.raises(ContractViolation):
        step_to(spec, Capabilities(), spec.x_init, [], 0.0, 1.0)


def test_degree_over_capability_rejected():
    spec = make_integrator()
    cubic = Polynomial(0.0, (0.0, 0.0, 0.0, 1.0))
    line = Polynomial(0.0, (0.0, 1.0))
    caps1 = Capabilities(max_input_degree=1)
    with pytest.raises(ContractViolation):
        step_to(spec, caps1, spec.x_init, [cubic], 0.0, 1.0)
    step_to(spec, caps1, spec.x_init, [line], 0.0, 1.0)
    # smoothing-capable subsystems accept cubics
    step_to(spec, Capabilities(max_input_degree=3), spec.x_init, [cubic], 0.0, 1.0)


def test_divergence_detected_with_context():
    spec = SubsystemSpec(
        "blow", 1, 0, 1,
        f=lambda t, x, u: [1e160 * x[0]],
        g=lambda t, x, u: [x[0]],
        x_init=(1.0,),
    )
    with pytest.raises(DivergenceError) as exc:
        step_to(spec, Capabilities(), spec.x_init, [], 2.0, 2.5)
    assert exc.value.label == "blow"
    assert exc.value.t_last_good == 2.0


def test_output_arity_checked():
    spec = SubsystemSpec(
        "bad_g", 1, 0, 2,
        f=lambda t, x, u: [0.0],
        g=lambda t, x, u: [x[0]],
        x_init=(0.0,),
    )
    with pytest.raises(ContractViolation):
        step_to(spec, Capabilities(), spec.x_init, [], 0.0, 1.0)


@pytest.mark.parametrize("derivatives", [[0.0], [0.0, 0.0, 0.0]])
def test_state_derivative_arity_checked(derivatives):
    # too few derivatives used to surface as an IndexError inside the RK4
    # loop, too many were accepted silently
    spec = SubsystemSpec(
        "bad_f", 2, 0, 1,
        f=lambda t, x, u: derivatives,
        g=lambda t, x, u: [x[0]],
        x_init=(0.0, 0.0),
    )
    with pytest.raises(ContractViolation, match="f returned"):
        step_to(spec, Capabilities(), spec.x_init, [], 0.0, 1.0)


def test_x_init_arity_checked():
    with pytest.raises(ConfigError):
        SubsystemSpec(
            "short", 2, 0, 0,
            f=lambda t, x, u: [0.0, 0.0],
            g=lambda t, x, u: [],
            x_init=(0.0,),
        )


# ------------------------------------------------- step_to against a reference

def reference_step_to(f, g, n, state, inputs, t_start, t_target, h):
    """Per-stage RK4 walk: the grid advanced and the inputs evaluated at
    every stage as the walk goes, the algorithm step_to has to reproduce."""

    def eval_inputs(t):
        out = []
        for p in inputs:
            tau = t - p.t_ref
            acc = 0.0
            for c in reversed(p.coeffs):
                acc = acc * tau + c
            out.append(acc)
        return out

    x = list(state)
    t = t_start
    guard = h * 1e-9
    steps = 0
    k1 = f(t, x, eval_inputs(t))
    while True:
        hs = t_target - t
        if hs > h:
            hs = h
        half = 0.5 * hs
        xs = [x[i] + half * k1[i] for i in range(n)]
        um = eval_inputs(t + half)
        k2 = f(t + half, xs, um)
        xs = [x[i] + half * k2[i] for i in range(n)]
        k3 = f(t + half, xs, um)
        xs = [x[i] + hs * k3[i] for i in range(n)]
        k4 = f(t + hs, xs, eval_inputs(t + hs))
        sixth = hs / 6.0
        x = [
            x[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i])
            for i in range(n)
        ]
        t += hs
        steps += 1
        if t_target - t <= guard:
            break
        k1 = f(t, x, eval_inputs(t))
    return x, tuple(g(t_target, x, eval_inputs(t_target))), steps


def same_floats(a, b):
    """Equal as floats and in the sign of every zero."""
    return len(a) == len(b) and all(
        u == v and math.copysign(1.0, u) == math.copysign(1.0, v)
        for u, v in zip(a, b)
    )


_coeff = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.5]),
    st.floats(-5.0, 5.0, allow_nan=False),
)
_poly = st.builds(
    Polynomial,
    st.floats(-1.0, 1.0, allow_nan=False),
    st.lists(_coeff, min_size=1, max_size=4).map(tuple),
)


@settings(max_examples=150, deadline=None)
@given(
    inputs=st.lists(_poly, max_size=2),
    x0=st.lists(_coeff, min_size=1, max_size=2),
    t_start=st.floats(-1.0, 1.0, allow_nan=False),
    n_steps=st.integers(0, 40),
    last=st.floats(0.05, 0.95),
    micro_step=st.one_of(st.none(), st.floats(1e-3, 0.05)),
)
def test_step_to_matches_the_per_stage_walk_bit_for_bit(
    inputs, x0, t_start, n_steps, last, micro_step
):
    # the window ends a fraction into a micro step, so the last one is short;
    # without an explicit micro step the window is long enough for the
    # spec's bound to set the step
    bound = 1e-3
    if micro_step is None:
        n_steps += int(MICRO_DIVISOR)
    h = micro_step if micro_step is not None else bound
    t_target = t_start + (n_steps + last) * h
    n = len(x0)

    def dynamics(log):
        def f(t, x, u):
            log.append((t, tuple(x), tuple(u)))
            mix = sum(u) if u else -0.0
            return [mix - 0.5 * x[i] + t * x[-1] for i in range(n)]

        return f

    def g(t, x, u):
        return list(x) + list(u) + [t]

    log, ref_log = [], []
    spec = SubsystemSpec("ref", n, len(inputs), n + len(inputs) + 1,
                         dynamics(log), g, tuple(x0), bound)
    x, y = step_to(spec, Capabilities(), spec.x_init, inputs, t_start,
                   t_target, micro_step)
    h_used = micro_step if micro_step is not None else min(
        (t_target - t_start) / MICRO_DIVISOR, bound
    )
    assert h_used == h
    ref_x, ref_y, steps = reference_step_to(
        dynamics(ref_log), g, n, spec.x_init, inputs, t_start, t_target, h_used
    )
    assert same_floats(x, ref_x)
    assert same_floats(y, ref_y)
    assert len(log) == 4 * steps
    for (t, xs, u), (rt, rxs, ru) in zip(log, ref_log):
        assert same_floats((t,) + xs + u, (rt,) + rxs + ru)
