import ast
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f3ornits import master, subsystem
from f3ornits.errors import ConfigError, ContractViolation, DivergenceError
from f3ornits.coupling import CouplingGraph
from f3ornits.poly import Polynomial
from f3ornits.master import CosimProblem, _SubRuntime
from f3ornits.models import CarParams, TwoMassParams, build_car, build_two_mass
from f3ornits.subsystem import (
    MICRO_ATOL, MICRO_DIVISOR, MICRO_RTOL, SCHEMES, Derivatives, SubsystemSpec,
    _micro_walk, step_to,
)


def const_input(v):
    return Polynomial(0.0, (v,))


def make_decay(rate=1.0, declared=False):
    # x' = -rate * x, y = x; declared, the micro walk evaluates it inline
    return SubsystemSpec(
        label="decay",
        n_states=1,
        n_in=0,
        n_out=1,
        f=(
            Derivatives(("-rate * x0",), (("rate", rate),)) if declared
            else lambda t, x, u: [-rate * x[0]]
        ),
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

@pytest.mark.parametrize(
    "field,value",
    [("max_input_degree", -1), ("imposed_step", 0.0),
     ("imposed_step", math.nan), ("imposed_step", math.inf)],
)
def test_spec_rejects_meaningless_capabilities(field, value):
    with pytest.raises(ConfigError, match=f"integ: {field}"):
        replace(make_integrator(), **{field: value})


def test_spec_accepts_declared_capabilities():
    spec = replace(make_integrator(), max_input_degree=0, imposed_step=0.5)
    assert (spec.max_input_degree, spec.imposed_step) == (0, 0.5)


@pytest.mark.parametrize(
    "m_k,plain,hard",
    [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 2, 3), (7, 2, 3)],
)
def test_degree_ceilings(m_k, plain, hard):
    spec = replace(make_integrator(), max_input_degree=m_k)
    for smoothing in (False, True):
        rt = _SubRuntime(spec, (), 0.0, smoothing)
        assert rt.deg_cap == plain
        assert rt.smooths == (smoothing and m_k >= 3)
    # step_to accepts exactly the input degrees up to the hard ceiling
    for degree in range(4):
        poly = Polynomial(0.0, (0.0,) * degree + (1.0,))
        if degree <= hard:
            step_to(spec, spec.x_init, [poly], 0.0, 0.1)
        else:
            with pytest.raises(ContractViolation, match=f"allows {m_k}"):
                step_to(spec, spec.x_init, [poly], 0.0, 0.1)


def test_spec_rejects_negative_arities():
    for n_in, n_out in ((-1, 0), (0, -1)):
        with pytest.raises(ConfigError, match="arities"):
            SubsystemSpec(
                "neg", 0, n_in, n_out,
                lambda t, x, u: [], lambda t, x, u: [], (),
            )


def attempts(times):
    """(start, end) of each step an error-controlled walk attempted, read
    off the times f was called at: the window start, then per attempt its
    midpoint twice and its end, and the end again, the next step's first
    stage, unless the attempt landed on the target.  An attempt whose
    successor's midpoint lies before its end was retried."""
    out, start, i = [], times[0], 1
    while i < len(times):
        mid, again, end = times[i:i + 3]
        assert mid == again and start < mid < end
        out.append((start, end))
        i += 3
        if i < len(times):
            assert times[i] == end
            i += 1
            if times[i] > end:
                start = end
    return out


def test_micro_step_rule():
    # the floor is the window over MICRO_DIVISOR, capped by the spec's own
    # bound; the ceiling is that bound, capped by the window.  An explicit
    # micro step overrides both and walks fixed steps
    calls = []

    def f(t, x, u):
        calls.append(t)
        return [-x[0]]

    spec = SubsystemSpec("count", 1, 0, 1, f, lambda t, x, u: [x[0]], (1.0,))
    for bound, micro_step, steps in ((1e-3, None, 1000), (1e-3, 0.1, 10)):
        calls.clear()
        step_to(replace(spec, max_micro_step=bound), spec.x_init, [], 0.0, 1.0,
                micro_step)
        assert len(calls) == 4 * steps
    # x' = -x keeps its local error estimate below MICRO_RTOL on steps of
    # about 0.026: 39 attempts, or 50 under a ceiling of 1/49 or of 0.0202,
    # which the walk still grows to from the floor
    for bound, ceiling, most in ((None, 1.0, 39), (0.5, 0.5, 39),
                                 (1.0 / 49.0, 1.0 / 49.0, 50), (0.0202, 0.0202, 50)):
        calls.clear()
        step_to(replace(spec, max_micro_step=bound), spec.x_init, [], 0.0, 1.0)
        tried = attempts(calls)
        assert len(calls) == 4 * len(tried) <= 4 * most
        assert tried[-1][1] == 1.0
        # the step each attempt took, as far as t + h - t rounds it
        sizes = [end - start for start, end in tried[:-1]]
        assert all(1.0 / MICRO_DIVISOR - 1e-12 <= hs <= ceiling + 1e-12 for hs in sizes)
        assert max(sizes) > 1.0 / MICRO_DIVISOR + 1e-12


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
    x, y = step_to(spec, spec.x_init, [], 0.0, 0.7)
    assert x == [2.0, 3.0]
    assert y == (5.0,)


def test_integrates_cubic_input_exactly():
    # RK4 integrates polynomials of degree <= 3 with zero truncation error
    spec = make_integrator()
    p = Polynomial(0.0, (1.0, -2.0, 3.0, 0.5))
    x, y = step_to(spec, spec.x_init, [p], 0.0, 0.8)
    exact = 0.8 - 0.8 ** 2 + 0.8 ** 3 + 0.5 * 0.8 ** 4 / 4.0
    assert y[0] == pytest.approx(exact, rel=1e-12)


def test_decay_accuracy():
    spec = replace(make_decay(2.0), max_micro_step=1e-3)
    x, y = step_to(spec, spec.x_init, [], 0.0, 1.0)
    assert y[0] == pytest.approx(math.exp(-2.0), rel=1e-9)


def test_lands_exactly_on_target():
    spec = make_decay()
    # a target that is not an integer multiple of the micro step: the last
    # micro step is shortened, so the state is x(t) at exactly the target
    t = 0.0123456789
    x, _ = step_to(spec, spec.x_init, [], 0.0, t)
    assert x[0] == pytest.approx(math.exp(-t), rel=1e-12)


def test_determinism_bitwise():
    spec = make_integrator()
    p = Polynomial(0.3, (0.1, 2.0, -1.0))
    a = step_to(spec, spec.x_init, [p], 0.25, 1.73)
    b = step_to(spec, spec.x_init, [p], 0.25, 1.73)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_micro_macro_separation():
    # halving the micro step moves a macro step's outputs by < 1e-7 relative
    spec = make_decay(3.0)
    _, coarse = step_to(spec, spec.x_init, [], 0.0, 0.5)
    _, fine = step_to(spec, spec.x_init, [], 0.0, 0.5, micro_step=0.0005)
    rel = abs(coarse[0] - fine[0]) / abs(fine[0])
    assert rel < 1e-7


def test_no_rollback():
    spec = make_decay()
    with pytest.raises(ValueError):
        step_to(spec, spec.x_init, [], 1.0, 1.0)
    with pytest.raises(ValueError):
        step_to(spec, spec.x_init, [], 1.0, 0.5)


@pytest.mark.parametrize(
    "micro_step,t_start,t_target,match",
    [
        (math.nan, 0.0, 1.0, "finite and positive"),
        (math.inf, 0.0, 1.0, "finite and positive"),
        (0.0, 0.0, 1.0, "finite and positive"),
        (-1.0, 0.0, 1.0, "finite and positive"),
        (None, 1e6, 1e6 + 1e-9, r"micro step .* does not advance t = 1000000\.0"),
    ],
    ids=["nan", "inf", "0.0", "-1.0", "sub-ulp"],
)
def test_rejects_meaningless_micro_steps(micro_step, t_start, t_target, match):
    # a NaN step would never end the walk and an infinite one would take a
    # single step; a step of at most half an ulp of t (here 2e-11 at
    # t = 1e6) leaves t where it is, so the walk could never end either
    spec = make_decay()
    with pytest.raises(ValueError, match=match):
        step_to(spec, spec.x_init, [], t_start, t_target, micro_step)


def test_a_scheme_without_an_estimate_walks_only_an_explicit_step():
    # rk2 has no error estimate to control a step with, so a window without
    # a micro step is refused rather than walked at the floor
    spec = make_decay()
    with pytest.raises(ValueError, match="decay: scheme 'rk2' has no error estimate"):
        step_to(spec, spec.x_init, [], 0.0, 1.0, None, "rk2")
    x, _ = step_to(spec, spec.x_init, [], 0.0, 1.0, 0.01, "rk2")
    assert x[0] == pytest.approx(math.exp(-1.0), rel=1e-4)


@pytest.mark.parametrize("micro_step", [None, 0.01])
def test_an_unknown_scheme_is_refused_by_name(micro_step):
    spec = make_decay()
    with pytest.raises(ValueError, match="decay: unknown micro-walk scheme 'euler'"):
        step_to(spec, spec.x_init, [], 0.0, 1.0, micro_step, "euler")


def test_input_arity_checked():
    spec = make_integrator()
    with pytest.raises(ContractViolation):
        step_to(spec, spec.x_init, [], 0.0, 1.0)
    # and so is the state's
    with pytest.raises(ContractViolation, match="got 2 states, expected 1"):
        step_to(spec, (0.0, 0.0), [const_input(1.0)], 0.0, 1.0)


def test_degree_over_capability_rejected():
    spec = make_integrator()
    cubic = Polynomial(0.0, (0.0, 0.0, 0.0, 1.0))
    line = Polynomial(0.0, (0.0, 1.0))
    linear = replace(spec, max_input_degree=1)
    with pytest.raises(ContractViolation):
        step_to(linear, spec.x_init, [cubic], 0.0, 1.0)
    step_to(linear, spec.x_init, [line], 0.0, 1.0)
    # smoothing-capable subsystems accept cubics
    step_to(replace(spec, max_input_degree=3), spec.x_init, [cubic], 0.0, 1.0)


def test_divergence_detected_with_context():
    spec = SubsystemSpec(
        "blow", 1, 0, 1,
        f=lambda t, x, u: [1e160 * x[0]],
        g=lambda t, x, u: [x[0]],
        x_init=(1.0,),
    )
    with pytest.raises(DivergenceError) as exc:
        step_to(spec, spec.x_init, [], 2.0, 2.5)
    assert exc.value.label == "blow"
    assert exc.value.t_last_good == 2.0


def test_inline_walk_keeps_the_stall_and_divergence_checks():
    # the walk a declaration compiles raises where the call walk does
    spec = make_decay(declared=True)
    with pytest.raises(ValueError, match=r"decay: micro step .* does not advance"):
        step_to(spec, spec.x_init, [], 1e6, 1e6 + 1e-9)
    with pytest.raises(DivergenceError) as exc:
        step_to(make_decay(-1e160, declared=True), (1.0,), [], 2.0, 2.5)
    assert exc.value.label == "decay"
    assert exc.value.t_last_good == 2.0


def test_a_declared_g_that_is_not_finite_diverges_at_the_window_start():
    spec = replace(make_decay(declared=True),
                   g=Derivatives(("x0 * big",), (("big", 1e308),)))
    with pytest.raises(DivergenceError) as exc:
        step_to(spec, (10.0,), [], 2.0, 2.5)
    assert exc.value.label == "decay"
    assert exc.value.t_last_good == 2.0


def test_a_state_that_is_not_finite_diverges_before_a_declared_g_runs():
    # int raises on nan and inf: the walk must stop at the state first
    reached = []

    def whole(v):
        reached.append(v)
        return int(v)

    for f in (Derivatives(("big * x0",), (("big", 1e160),)),
              lambda t, x, u: [1e160 * x[0]]):
        spec = SubsystemSpec("blow", 1, 0, 1, f,
                             Derivatives(("whole(x0)",), (("whole", whole),)),
                             (1.0,))
        with pytest.raises(DivergenceError) as exc:
            step_to(spec, spec.x_init, [], 2.0, 2.5)
        assert exc.value.t_last_good == 2.0
    assert reached == []


def test_f_and_g_each_read_their_own_constants_and_values():
    # k and v mean one thing to f and another to g
    f = Derivatives(("v",), (("k", 1.0),), (("v", "-k * x0"),))
    g = Derivatives(("v", "k"), (("k", 3.0),), (("v", "k * x0 + 1.0"),))
    spec = SubsystemSpec("own", 1, 0, 2, f, g, (1.0,))
    x, y = step_to(spec, spec.x_init, [], 0.0, 1.0, 0.125)
    plain_x, _ = step_to(make_decay(), (1.0,), [], 0.0, 1.0, 0.125)
    assert hexes(x) == hexes(plain_x)
    assert hexes(y) == hexes([3.0 * x[0] + 1.0, 3.0])


def test_a_declared_g_reads_its_inputs_at_the_target_not_the_last_step_end():
    # from 0.0 in steps of 0.1 the walk's last t1 is 0.9999999999999999,
    # within its guard of the target 1.0: g reads u0 at 1.0, with the
    # operations of Polynomial.__call__
    p = Polynomial(0.25, (-0.0, 3.0, -1.5, 7.0))
    t, h = 0.0, 0.1
    while 1.0 - t > h:
        t += h
    assert t != 1.0 and p(t) != p(1.0)
    g = Derivatives(("u0", "x0 * u0 + t"))
    f = Derivatives(("u0 - x0",))
    for spec in (SubsystemSpec("late", 1, 1, 2, f, g, (0.5,)),
                 SubsystemSpec("late", 1, 1, 2, lambda t, x, u: [u[0] - x[0]],
                               g, (0.5,))):
        x, y = step_to(spec, spec.x_init, [p], 0.0, 1.0, h)
        assert hexes(y) == hexes([p(1.0), x[0] * p(1.0) + 1.0])


def hexes(values):
    return [v.hex() for v in values]


def walk_three_ways(exprs, constants, plain, x0, inputs=(), t0=0.0, t1=1.0,
                    h=0.125, values=()):
    """The state step_to reaches with the declaration inline, through its
    compiled function, and with a plain closure of the same dynamics, in
    steps of h, or under the error control with h None; all three must
    agree bit for bit, zero signs included."""
    declared = Derivatives(exprs, constants, values)
    results = []
    for f in (declared, lambda t, x, u: declared(t, x, u), plain):
        spec = SubsystemSpec("kernel", len(x0), len(inputs), 1, f,
                             lambda t, x, u: [0.0], tuple(x0))
        x, _ = step_to(spec, spec.x_init, list(inputs), t0, t1, h)
        results.append(hexes(x))
    assert results[0] == results[1] == results[2]
    return results[0]


def test_walk_names_time_input_and_constant_only_subexpressions():
    # kk and sk read only constants, tu, uu and z no state, q a state and
    # kk: each is evaluated apart from the derivatives, which must not move
    # a bit
    def scale(v):
        return 2.0 * v

    k = 1.5
    values = (
        ("kk", "k * k"),
        ("sk", "scale(k)"),
        ("tu", "t * u0"),
        ("uu", "-(u0 * u1)"),
        ("z", "u0 * t * -0.0"),
        ("q", "x1 * kk"),
    )
    exprs = ("q + tu", "uu * x0 + sk - x1 * t * t + z")

    def plain(t, x, u):
        return [x[1] * (k * k) + t * u[0],
                -(u[0] * u[1]) * x[0] + scale(k) - x[1] * t * t + u[0] * t * -0.0]

    inputs = (Polynomial(0.3, (0.5, -1.0, 0.25)), Polynomial(-0.2, (-0.0, 2.0)))
    walk_three_ways(exprs, (("k", k), ("scale", scale)), plain, (0.5, -0.25),
                    inputs, t0=-0.4, t1=0.73, h=0.05, values=values)


def test_named_values_are_evaluated_twice_per_micro_step_plus_once_per_window():
    # a and au read no state: at the window start, then at each step's
    # midpoint and end, which the next step's start reuses; o reads only
    # constants: once per window; w reads a state through s: at every
    # stage.  a appears in both derivatives and is still one value; idle,
    # which no expression reads, is never evaluated, in the walk or by a
    # declared g that shares the values
    calls = {"at": 0, "once": 0, "probe": 0}

    def at(v):
        calls["at"] += 1
        return 0.5 * v

    def once():
        calls["once"] += 1
        return 0.25

    def probe(v):
        calls["probe"] += 1
        return v

    values = (("a", "at(t)"), ("o", "once()"), ("au", "at(u0)"),
              ("s", "x0 * o"), ("w", "probe(s)"), ("idle", "probe(at(x1))"))
    exprs = ("a * x1 - w", "x0 + a * au")
    helpers = (("at", at), ("once", once), ("probe", probe))
    spec = SubsystemSpec("count", 2, 1, 1, Derivatives(exprs, helpers, values),
                         Derivatives(("x1",), helpers, values), (1.0, 0.0))
    u = [Polynomial(0.0, (1.0, 0.5))]
    x = list(spec.x_init)
    for window, (t0, t1) in enumerate(((0.0, 1.0), (1.0, 1.5))):
        before = dict(calls)
        x, y = step_to(spec, x, u, t0, t1, 0.125)
        steps = round((t1 - t0) / 0.125)
        assert calls["at"] - before["at"] == 2 * (2 * steps + 1)
        assert calls["once"] - before["once"] == 1
        assert calls["probe"] - before["probe"] == 4 * steps
        assert y == (x[1],)


def sign(cell):
    # a pure helper that tells the two zero cells, -0.0 and 0.0, apart
    return math.copysign(1.0, cell)


def wobble(cell):
    return math.sin(3.0 * cell) - 0.25 * cell


_D, _D2 = 0.1, 0.07


@pytest.mark.parametrize(
    "t0,t1,h",
    [
        (-0.0, 0.3, 0.0125),
        (-0.0, 0.05, 0.05),
        (0.0, 0.3, 0.0125),
        (math.nextafter(3 * _D, -math.inf), math.nextafter(5 * _D, math.inf), 0.01),
        (math.nextafter(3 * _D, math.inf), math.nextafter(6 * _D, -math.inf), 0.025),
        (math.nextafter(-2 * _D, -math.inf), math.nextafter(2 * _D, math.inf), 0.02),
        (-0.35, math.nextafter(-_D, -math.inf), 0.05),
        (1.0, 1.7, 0.125),
    ],
)
@pytest.mark.parametrize("t_ref", [-1.0, 0.0, 0.5])
def test_values_read_through_time_cells_match_the_declaration(t0, t1, h, t_ref):
    # the cells read t, and side and w read time only through them: all are
    # evaluated at every stage time, with a, which reads an input too, so
    # -0.0's cell (side -1.0) gives way to the +0.0 cell after it.  Windows
    # start on -0.0 and cross cell edges an ulp either side, with an input
    # referenced before, at and after the window start
    values = (("cell", "t // d"), ("c2", "t // d2"), ("side", "sign(cell)"),
              ("w", "wobble(cell + c2) * side"), ("a", "w + u0"))
    exprs = ("x1 * side", "a - x0 * w")

    def plain(t, x, u):
        cell = t // _D
        side = math.copysign(1.0, cell)
        w = wobble(cell + t // _D2) * side
        return [x[1] * side, w + u[0] - x[0] * w]

    constants = (("d", _D), ("d2", _D2), ("sign", sign), ("wobble", wobble))
    walk_three_ways(exprs, constants, plain, (0.5, -0.25),
                    (Polynomial(t_ref, (-0.0, 1.5, -0.5)),), t0=t0, t1=t1, h=h,
                    values=values)


@pytest.mark.parametrize("t0,t_ref", [(0.0, 0.5), (0.0, 0.0), (-0.0, 0.0), (0.75, 0.5),
                                      (0.0, -2.0 ** 1000), (0.0, -2.0 ** 999)])
def test_inputs_keep_their_zero_signs_where_tau_is_negative_or_zero(t0, t_ref):
    # the Horner lead 0.0 + c_d reads no tau, so the constant -0.0 is +0.0
    # at every stage, while (-0.0, -0.0) gives (+0.0) * tau + -0.0: -0.0
    # where tau is negative or -0.0 (a window from -0.0 about 0.0, whose
    # start alone has that tau) and +0.0 where it is positive
    inputs = (Polynomial(t_ref, (-0.0,)), Polynomial(t_ref, (-0.0, -0.0)))

    def plain(t, x, u):
        return [sign(u[0]) + 2.0 * sign(u[1])]

    x = walk_three_ways(("sign(u0) + 2.0 * sign(u1)",), (("sign", sign),), plain,
                        (0.0,), inputs, t0=t0, t1=t0 + 1.0, h=0.125)
    ref_x, _, _ = reference_step_to(plain, lambda t, x, u: [], 1, (0.0,), inputs,
                                    t0, t0 + 1.0, 0.125)
    assert x == hexes(ref_x)


@pytest.mark.parametrize("t0,t1", [(0.0, 1.0), (-0.0, 0.5), (0.125, 1.125)])
def test_derivatives_that_are_values_of_a_stage_time_keep_each_stage(t0, t1):
    # every derivative is a value of its stage time, read in place: a cell,
    # a helper of a cell, or a value that names one of those.  Each stage
    # must keep its own, although the next stage time evaluates them again.
    # Cells of 0.1875 s on steps of 0.125 s change at a midpoint (0.1875,
    # 0.5625) and at a step end (0.375, 0.75)
    values = (("cell", "t // d"), ("r", "wobble(cell)"), ("q", "r"), ("e", "cell"))

    def plain(t, x, u):
        cell = t // 0.1875
        return [wobble(cell), cell, wobble(cell), cell]

    walk_three_ways(("r", "cell", "q", "e"), (("d", 0.1875), ("wobble", wobble)),
                    plain, (0.5, -0.25, 0.0, 1.0), t0=t0, t1=t1, h=0.125,
                    values=values)


def test_a_value_that_reads_a_cell_runs_once_per_stage_time():
    # cells of 0.25 s on a grid of 0.0625 s stage times: the helper reads
    # the cell of the window start and of each stage time after it, as
    # often as tr, which also reads t
    seen, timed = [], []

    def cells(t0, t1, h=0.125):
        # the walk's stage times: its start, then each step's midpoint and end
        t, times = t0, [t0]
        while t < t1:
            times += [t + 0.5 * h, t + h]
            t += h
        return [t // 0.25 for t in times]

    def noise(cell):
        seen.append(cell)
        return 0.5 * cell

    def at(v):
        timed.append(v)
        return v

    values = (("cell", "t // d"), ("r", "noise(cell)"), ("tr", "at(t + r)"))
    constants = (("d", 0.25), ("noise", noise), ("at", at))
    spec = SubsystemSpec("cells", 2, 0, 1,
                         Derivatives(("r", "tr"), constants, values),
                         lambda t, x, u: [x[0]], (0.0, 0.0))
    x, _ = step_to(spec, spec.x_init, [], 0.0, 1.0, 0.125)
    assert seen == cells(0.0, 1.0)
    assert len(seen) == len(timed) == 2 * 8 + 1
    del seen[:], timed[:]
    step_to(spec, x, [], 1.0, 1.5, 0.125)
    assert seen == cells(1.0, 1.5)
    assert len(seen) == len(timed) == 2 * 4 + 1
    # a window from -0.0: its start cell is -0.0, every later one up to
    # 0.25 is 0.0, equal to it but of the other sign
    del seen[:], timed[:]
    step_to(spec, x, [], -0.0, 0.25, 0.125)
    assert seen == cells(-0.0, 0.25)
    assert len(seen) == len(timed) == 2 * 2 + 1
    assert [sign(c) for c in seen] == [-1.0, 1.0, 1.0, 1.0, 1.0]
    assert seen[-1] == 1.0


@pytest.mark.parametrize(
    "expr,plain",
    [
        ("(1.0 / t) if x0 > 0.0 else 0.0",
         lambda t, x, u: [(1.0 / t) if x[0] > 0.0 else 0.0]),
        ("(x0 > 0.0 and 1.0 / t) or 0.0",
         lambda t, x, u: [(x[0] > 0.0 and 1.0 / t) or 0.0]),
        ("1.0 if x0 > 0.0 > -1.0 / t else 0.0",
         lambda t, x, u: [1.0 if x[0] > 0.0 > -1.0 / t else 0.0]),
    ],
    ids=["if", "and", "chained-comparison"],
)
def test_walk_leaves_branches_where_they_are(expr, plain):
    # 1.0 / t reads no state but sits in a branch x0 < 0 never takes: named
    # and evaluated at t = 0, it would raise ZeroDivisionError
    assert walk_three_ways((expr,), (), plain, (-1.0,)) == [(-1.0).hex()]


def test_walk_reads_permuted_bare_states_before_the_step_moves_them():
    # each derivative is another state: stage 1's must be read before the
    # step updates the state it names
    x = walk_three_ways(("x2", "x0", "x1"), (),
                        lambda t, x, u: [x[2], x[0], x[1]], (1.0, -2.0, 3.0))
    assert len(set(x)) == 3


def test_walk_evaluates_values_that_are_bare_names_at_their_level():
    # b names a, which names x0; w names t, v an input and c2 a constant:
    # each is one more assignment at the level of what it reads, and b, a
    # copy of a state the step updates before x1's, is taken before the
    # update
    k = -0.75
    values = (("a", "x0"), ("b", "a"), ("w", "t"), ("v", "u0"), ("c2", "c"))
    x = walk_three_ways(("x1", "b", "w * v + c2"), (("c", k),),
                        lambda t, x, u: [x[1], x[0], t * u[0] + k],
                        (1.0, -2.0, 3.0), (Polynomial(0.2, (0.5, -1.0, 0.25)),),
                        values=values)
    assert len(set(x)) == 3


def test_walk_evaluates_a_subexpression_repeated_across_states_once():
    # d = (x0 - x1) * c is every derivative or part of it: one value per
    # stage, read by name, the third derivative being d itself
    c = 0.75
    exprs = ("d + u0", "x0 - d", "d")

    def plain(t, x, u):
        return [(x[0] - x[1]) * c + u[0], x[0] - (x[0] - x[1]) * c,
                (x[0] - x[1]) * c]

    walk_three_ways(exprs, (("c", c),), plain, (0.5, -1.5, 0.0),
                    (Polynomial(0.1, (1.0, -0.5, 0.0, 2.0)),),
                    values=(("d", "(x0 - x1) * c"),))


def test_output_arity_checked():
    spec = SubsystemSpec(
        "bad_g", 1, 0, 2,
        f=lambda t, x, u: [0.0],
        g=lambda t, x, u: [x[0]],
        x_init=(0.0,),
    )
    with pytest.raises(ContractViolation):
        step_to(spec, spec.x_init, [], 0.0, 1.0)


def callable_g_spec(window, g):
    """A spec with one state, one input and two outputs whose g is the
    callable g, walked with a callable f, with a declared f, or, for
    window "lag", stepped in closed form."""
    f = (Derivatives(("u0 - x0",)) if window == "declared f"
         else lambda t, x, u: [u[0] - x[0]])
    lags = (subsystem.Lag(0, 0, 1.0),) if window == "lag" else ()
    return SubsystemSpec("bad_g", 1, 1, 2, f, g, (0.5,), lags=lags, dt0=0.1)


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("window", ["callable f", "declared f", "lag",
                                    "initial exchange"])
def test_a_callable_g_of_the_wrong_count_is_refused_by_name(window, count):
    # a window's kernel calls a callable g once, at the window's end, and
    # the initial exchange calls it once per pass: both refuse an output
    # count other than the spec's by the one rule, naming both counts
    spec = callable_g_spec(window, lambda t, x, u: [x[0]] * count)
    with pytest.raises(ContractViolation,
                       match=f"^bad_g: g returned {count} outputs, expected 2$"):
        if window == "initial exchange":
            source = SubsystemSpec("source", 1, 0, 1, lambda t, x, u: [0.0],
                                   lambda t, x, u: [1.0], (0.0,), dt0=0.1)
            master._initial_exchange(CosimProblem(
                (source, spec), CouplingGraph({(1, 0): (0, 0)}), 0.0, 1.0
            ))
        else:
            step_to(spec, spec.x_init, [Polynomial(0.0, (1.0, 2.0))], 0.0, 1.0)


@pytest.mark.parametrize("window", ["callable f", "declared f", "lag"])
def test_a_callable_g_that_changes_its_lists_leaves_the_state(window):
    # the kernel hands a callable g the state and the inputs as fresh
    # lists: what g writes into them does not reach the state step_to
    # returns
    def vandal(t, x, u):
        y = [x[0] + u[0], t]
        x[0] = u[0] = math.nan
        x.append(1.0)
        return y

    u = [Polynomial(0.0, (1.0, 2.0))]
    plain = callable_g_spec(window, lambda t, x, u: [x[0] + u[0], t])
    spec = callable_g_spec(window, vandal)
    x, y = step_to(spec, spec.x_init, u, 0.0, 1.0)
    assert (hexes(x), hexes(y)) == tuple(
        map(hexes, step_to(plain, plain.x_init, u, 0.0, 1.0))
    )
    assert len(x) == 1 and math.isfinite(x[0])


@pytest.mark.parametrize("derivatives", [[0.0], [0.0, 0.0, 0.0]])
def test_state_derivative_arity_checked(derivatives):
    # every stage is checked, not only k1: too few derivatives at a later
    # stage used to surface as an IndexError inside the RK4 loop, and too
    # many were accepted silently
    for stage in range(4):
        calls = []

        def f(t, x, u):
            calls.append(t)
            return derivatives if len(calls) == stage + 1 else [0.0, 0.0]

        spec = SubsystemSpec("bad_f", 2, 0, 1, f, lambda t, x, u: [x[0]],
                             (0.0, 0.0))
        with pytest.raises(
            ContractViolation,
            match=f"bad_f: f returned {len(derivatives)} derivatives, expected 2",
        ):
            step_to(spec, spec.x_init, [], 0.0, 1.0)
        assert len(calls) == stage + 1


@pytest.mark.parametrize(
    "exprs,constants,match,values,outputs",
    [row + ((), None) for row in [
        (("x1",), (), "bad: 1 derivative expressions for 2 states"),
        (("x1", "x0", "x1"), (), "bad: 3 derivative expressions for 2 states"),
        (("x2", "x0"), (), "bad: derivative 0 reads x2, out of range"),
        (("x1", "-u1"), (), "bad: derivative 1 reads u1, out of range"),
        (("x1", "-k * x0"), (), "bad: derivative 1 reads unknown name 'k'"),
        (("x1", "abs(x0)"), (), "bad: derivative 1 reads unknown name 'abs'"),
        (("x1", "_h"), (), "bad: derivative 1 reads unknown name '_h'"),
        (("x1", "(x0 := 1.0)"), (), "bad: derivative 1 assigns 'x0'"),
        (("x1", "x0 = 1.0"), (), "bad: derivative 1 is not an expression"),
        (("x1", ""), (), "bad: derivative 1 is not an expression"),
        (("x1", "x0 +"), (), "bad: derivative 1 is not an expression"),
        (("x1", "x0\nx1"), (), "bad: derivative 1 is not an expression"),
        (("x1", "-x0"), (("t", 1.0),), "bad: constant 't' would shadow"),
        (("x1", "-x0"), (("x3", 1.0),), "bad: constant 'x3' would shadow"),
        (("x1", "-x0"), (("u0", 1.0),), "bad: constant 'u0' would shadow"),
        (("x1", "-x0"), (("_h", 1.0),), "bad: constant '_h' would shadow"),
        (("x1", "(lambda x0: x0)(1.0)"), (), "bad: derivative 1 opens a scope"),
        (("x1", "sum([x0 for () in [()]])"), (("sum", sum),),
         "bad: derivative 1 opens a scope"),
        (("x1", "(yield x0)"), (), "bad: derivative 1 suspends"),
    ]] + [
        (("x1", "-x0"), (("k", 1.0), ("k", 2.0)),
         "bad: constant 'k' is declared twice", (), None),
        (("x1", "v"), (), "bad: value 'v' is declared twice",
         (("v", "x0"), ("v", "x1")), None),
        (("x1", "k"), (("k", 1.0),), "bad: value 'k' shadows a constant",
         (("k", "x0"),), None),
        (("x1", "a"), (), "bad: value 'a' reads 'b', a value not declared before",
         (("a", "b"), ("b", "x0")), None),
        (("x1", "-x0"), (), "bad: value 'x1' would shadow", (("x1", "x0"),), None),
        (("x1", "-x0"), (), "bad: value '_v' would shadow", (("_v", "x0"),), None),
        (("x1", "v"), (), "bad: value 'v' reads unknown name 'k'",
         (("v", "k * x0"),), None),
        (("x1", "-x0"), (), "bad: 2 output expressions for 1 outputs", (),
         ("x0", "x1")),
        (("x1", "-x0"), (), "bad: output 0 reads u1, out of range", (), ("u1",)),
        (("x1", "-x0"), (), "bad: output 0 reads unknown name 'v'", (), ("v",)),
    ],
)
def test_declared_derivatives_are_checked_against_the_spec(
    exprs, constants, match, values, outputs
):
    # the names t, x0.., u0.. and every name with a leading underscore are
    # the micro walk's own locals, so only those in range may be read and
    # no constant or value may take one; each name is declared once, and a
    # value reads only the values before it.  A declared g is checked the
    # same way, with one expression per output
    g = (
        (lambda t, x, u: [x[0]]) if outputs is None
        else Derivatives(outputs, constants, values)
    )
    with pytest.raises(ConfigError, match=match):
        SubsystemSpec("bad", 2, 1, 1, Derivatives(exprs, constants, values), g,
                      (0.0, 0.0))


def test_declared_derivatives_are_hashable_callables():
    def spring(x):
        return -x

    a = Derivatives(("x1", "spring(x0) - d * x1 + u0"),
                    (("spring", spring), ("d", 0.5)))
    b = Derivatives(("x1", "spring(x0) - d * x1 + u0"),
                    (("spring", spring), ("d", 0.5)))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    SubsystemSpec("ok", 2, 1, 1, a, lambda t, x, u: [x[0]], (1.0, 0.0))
    assert a(0.0, [1.0, 2.0], (3.0,)) == [2.0, -1.0 - 0.5 * 2.0 + 3.0]
    # any name but the walk's own may be a helper, f included
    assert Derivatives(("f(x0)",), (("f", spring),))(0.0, [3.0], ()) == [-3.0]


def test_x_init_arity_checked():
    with pytest.raises(ConfigError):
        SubsystemSpec(
            "short", 2, 0, 0,
            f=lambda t, x, u: [0.0, 0.0],
            g=lambda t, x, u: [],
            x_init=(0.0,),
        )


# ------------------------------------------------- step_to against a reference

def inputs_at(inputs, t):
    """Each input at t by textbook Horner from its lead 0.0 + c_d, which
    reads no tau: the rule of `Polynomial.__call__` and of every walk."""
    out = []
    for p in inputs:
        tau = t - p.t_ref
        acc = 0.0 + p.coeffs[-1]
        for c in reversed(p.coeffs[:-1]):
            acc = acc * tau + c
        out.append(acc)
    return out


def reference_step_to(f, g, n, state, inputs, t_start, t_target, h):
    """Per-stage RK4 walk: the grid advanced and the inputs evaluated at
    every stage as the walk goes, the algorithm step_to has to reproduce."""

    def eval_inputs(t):
        return inputs_at(inputs, t)

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


def reference_controlled_step_to(f, g, n, state, inputs, t_start, t_target,
                                 h_min, h_max):
    """The error-controlled RK4 walk, transcribed from its rule: the
    per-stage walk above from h_min, with the next step's first stage
    k5 = f(t1, x1, u(t1)) after every step but the one that lands, the
    estimate E = (h / 6) (k5 - k4), a step accepted when its error is at
    most 1 or h is h_min, and h then grown by at most 5 up to h_max, or
    retried shrunk by at least 0.2 down to h_min.  Returns the state, the
    outputs and each attempt as (t, hs, accepted)."""

    def eval_inputs(t):
        return inputs_at(inputs, t)

    x = list(state)
    t, h = t_start, h_min
    guard = h_min * 1e-9
    tried = []
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
        t1 = t + hs
        ue = eval_inputs(t1)
        k4 = f(t1, xs, ue)
        sixth = hs / 6.0
        x1 = [
            x[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i])
            for i in range(n)
        ]
        if t_target - t1 <= guard:
            tried.append((t, hs, True))
            x = x1
            break
        k5 = f(t1, x1, ue)
        err = max((
            abs(sixth * (k5[i] - k4[i]))
            / (MICRO_ATOL + MICRO_RTOL * max(abs(x[i]), abs(x1[i])))
            for i in range(n)
        ), default=0.0)
        accepted = err <= 1.0 or h <= h_min
        tried.append((t, hs, accepted))
        if accepted:
            x, t, k1 = x1, t1, k5
            grow = min(5.0, 0.9 * err ** -0.25) if err else 5.0
            h = min(h_max, max(h_min, h * grow))
        else:
            h = max(h_min, h * max(0.2, 0.9 * err ** -0.25))
    return x, tuple(g(t_target, x, eval_inputs(t_target))), tried


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
    inputs=st.lists(_poly, max_size=3),
    x0=st.lists(_coeff, max_size=4),
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
    # spec's bound to set the step.  0 to 4 states: every walk step_to
    # compiles for the models, both monoliths and a stateless spec; 0 to 3
    # inputs of degree 0 to 3, each evaluated by its own inline Horner block.
    # The dynamics are also declared, the inputs' sum as a named value, for
    # the walk that evaluates them inline, and called through that
    # declaration; g is declared too, for the walk that evaluates it at
    # the window's end
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

    us = "".join(f"u{j}, " for j in range(len(inputs)))
    declared = Derivatives(
        tuple(f"mix - 0.5 * x{i} + t * x{n - 1}" for i in range(n)),
        (("sum", sum),),
        (("mix", f"sum(({us}))" if inputs else "-0.0"),),
    )

    def g(t, x, u):
        return list(x) + list(u) + [t]

    declared_g = Derivatives(
        tuple(f"x{i}" for i in range(n))
        + tuple(f"u{j}" for j in range(len(inputs))) + ("t",)
    )

    log, ref_log = [], []
    spec = SubsystemSpec("ref", n, len(inputs), n + len(inputs) + 1,
                         dynamics(log), g, tuple(x0), bound)
    x, y = step_to(spec, spec.x_init, inputs, t_start, t_target, micro_step)
    for f, g_twin in ((declared, g), (declared, declared_g),
                      (lambda t, x, u: declared(t, x, u), declared_g)):
        twin_x, twin_y = step_to(replace(spec, f=f, g=g_twin), spec.x_init,
                                 inputs, t_start, t_target, micro_step)
        assert same_floats(twin_x, x)
        assert same_floats(twin_y, y)
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


@settings(max_examples=150, deadline=None)
@given(
    inputs=st.lists(_poly, max_size=3),
    x0=st.lists(_coeff, max_size=4),
    t_start=st.floats(-1.0, 1.0, allow_nan=False),
    window=st.floats(1e-3, 3.0),
    ceiling=st.one_of(st.none(), st.floats(0.021, 2.0)),
    rate=st.floats(0.0, 20.0),
)
def test_error_controlled_step_to_matches_its_rule_bit_for_bit(
    inputs, x0, t_start, window, ceiling, rate
):
    # a window without an explicit micro step whose ceiling, the bound
    # (drawn as a share of the window) or the window itself, could save a
    # step: the kernel walks it as its rule transcribed, with f called as
    # often, at the same times, states and inputs, whether f is a callable,
    # declared, or called through that declaration.  rate sets how fast the
    # states decay, and so how far the steps grow
    t_target = t_start + window
    window = t_target - t_start  # as step_to sees it
    bound = None if ceiling is None else ceiling * window
    n = len(x0)

    def dynamics(log):
        def f(t, x, u):
            log.append((t, tuple(x), tuple(u)))
            mix = sum(u) if u else -0.0
            return [mix - rate * x[i] + t * x[-1] for i in range(n)]

        return f

    us = "".join(f"u{j}, " for j in range(len(inputs)))
    declared = Derivatives(
        tuple(f"mix - rate * x{i} + t * x{n - 1}" for i in range(n)),
        (("sum", sum), ("rate", rate)),
        (("mix", f"sum(({us}))" if inputs else "-0.0"),),
    )

    def g(t, x, u):
        return list(x) + list(u) + [t]

    log, ref_log = [], []
    spec = SubsystemSpec("ref", n, len(inputs), n + len(inputs) + 1,
                         dynamics(log), g, tuple(x0), bound)
    x, y = step_to(spec, spec.x_init, inputs, t_start, t_target)
    assert [adaptive for *_, adaptive in spec.kernels] == [True]
    for f in (declared, lambda t, x, u: declared(t, x, u)):
        twin_x, twin_y = step_to(replace(spec, f=f), spec.x_init, inputs,
                                 t_start, t_target)
        assert same_floats(twin_x, x)
        assert same_floats(twin_y, y)
    h_max = window if bound is None else min(window, bound)
    ref_x, ref_y, tried = reference_controlled_step_to(
        dynamics(ref_log), g, n, spec.x_init, inputs, t_start, t_target,
        window / MICRO_DIVISOR, h_max,
    )
    assert same_floats(x, ref_x)
    assert same_floats(y, ref_y)
    assert len(log) == len(ref_log) == 4 * len(tried)
    for (t, xs, u), (rt, rxs, ru) in zip(log, ref_log):
        assert same_floats((t,) + xs + u, (rt,) + rxs + ru)
    # no attempt but the one that lands is shorter than the floor
    assert all(hs >= window / MICRO_DIVISOR for _, hs, _ in tried[:-1])


def stiffening(log):
    """x' = -(1e-4 + 0.5 (t / 10)^8) x: slow, then fast enough over 10 s
    that steps grown early are retried, 12 times from x = 1 over [0, 10]."""

    def f(t, x, u):
        log.append(t)
        return [-(1e-4 + 0.5 * (t / 10.0) ** 8) * x[0]]

    return f


def test_f_is_evaluated_four_times_per_attempted_step():
    # retried attempts included; the declared f evaluates probe once per
    # stage, as often as the callable is called
    calls, probed = [], []

    def probe(x):
        probed.append(x)
        return x

    declared = Derivatives(("-(1e-4 + 0.5 * (t / 10.0) ** 8) * probe(x0)",),
                           (("probe", probe),))
    spec = SubsystemSpec("stiffening", 1, 0, 1, stiffening(calls),
                         lambda t, x, u: [x[0]], (1.0,))
    x, _ = step_to(spec, spec.x_init, [], 0.0, 10.0)
    tried = attempts(calls)
    retried = sum(a[0] == b[0] for a, b in zip(tried, tried[1:]))
    assert retried == 12
    assert len(calls) == 4 * len(tried)
    declared_x, _ = step_to(replace(spec, f=declared), spec.x_init, [], 0.0, 10.0)
    assert len(probed) == len(calls)
    assert same_floats(declared_x, x)


def test_no_attempt_is_shorter_than_the_floor():
    # the floor is 10 / MICRO_DIVISOR = 0.2, the ceiling the bound 4: grown
    # steps are retried shrunk, never below 0.2, and none exceeds 4
    calls = []
    spec = SubsystemSpec("stiffening", 1, 0, 1, stiffening(calls),
                         lambda t, x, u: [x[0]], (1.0,), max_micro_step=4.0)
    step_to(spec, spec.x_init, [], 0.0, 10.0)
    steps = [end - start for start, end in attempts(calls)]
    assert min(steps[:-1]) >= 0.2 - 1e-12
    assert max(steps) <= 4.0 + 1e-12
    assert max(steps) > 4.0 - 1e-12 and min(steps[:-1]) < 0.2 + 1e-12


@pytest.mark.parametrize("window", [0.05, 0.1, 0.37])
def test_a_window_whose_floor_is_its_ceiling_walks_the_fixed_step(window):
    # floor and ceiling are both the bound: the controlled walk never leaves
    # it, so it takes the explicit fixed walk's steps, f evaluations and
    # bits, with f and g called or declared, over inputs of uneven degrees
    bound = 1e-3
    u = [Polynomial(0.0, (0.5, -1.0, 0.25)), Polynomial(0.01, (2.0,))]
    log = []

    def f(t, x, u):
        log.append(hexes((t, *x, *u)))
        return [x[1], -4.0 * x[0] - 0.1 * x[1] + u[0] * u[1]]

    def probe(t, x0, x1, u0, u1):
        log.append(hexes((t, x0, x1, u0, u1)))
        return x1

    declared = Derivatives(
        ("probe(t, x0, x1, u0, u1)", "-4.0 * x0 - 0.1 * x1 + u0 * u1"),
        (("probe", probe),),
    )
    h = min(window / MICRO_DIVISOR, bound)
    assert h == bound
    for f, g in ((f, lambda t, x, u: [x[0] + u[1]]),
                 (declared, Derivatives(("x0 + u1",)))):
        spec = SubsystemSpec("bounded", 2, 2, 1, f, g, (1.0, 0.0), max_micro_step=bound)
        log.clear()
        x, y = step_to(spec, spec.x_init, u, 0.0, window)
        walked = list(log)
        log.clear()
        # a fresh spec, so its kernels hold only the fixed walk's
        fixed = replace(spec)
        fixed_x, fixed_y = step_to(fixed, spec.x_init, u, 0.0, window, h)
        assert hexes(x) == hexes(fixed_x) and hexes(y) == hexes(fixed_y)
        assert walked == log and len(walked) == 4 * round(window / h)
        assert list(spec.kernels) == [("rk4", 2, True)]
        assert list(fixed.kernels) == [("rk4", 2, False)]


def test_a_window_just_short_of_50_bounds_grows_past_its_floor():
    # 49.9 bounds: the floor, the window over MICRO_DIVISOR, is below the
    # bound, and the walk is the controlled one, which grows from the floor
    # to the bound after its first step
    calls, bound, window = [], 1e-3, 0.0499

    def f(t, x, u):
        calls.append((t, tuple(x), tuple(u)))
        return [x[1], -4.0 * x[0] - 0.1 * x[1] + u[0]]

    def g(t, x, u):
        return [x[0]]

    u = [Polynomial(0.0, (0.5, -1.0, 0.25))]
    spec = SubsystemSpec("bounded", 2, 1, 1, f, g, (1.0, 0.0), max_micro_step=bound)
    x, y = step_to(spec, spec.x_init, u, 0.0, window)
    assert list(spec.kernels) == [("rk4", 2, True)]
    floor, ceiling = subsystem.micro_steps(spec, window)
    assert floor == window / MICRO_DIVISOR < ceiling == bound
    walked = list(calls)
    calls.clear()
    ref_x, ref_y, tried = reference_controlled_step_to(
        f, g, 2, spec.x_init, u, 0.0, window, floor, ceiling
    )
    assert same_floats(x, ref_x) and same_floats(y, ref_y) and walked == calls
    assert [hs for _, hs, _ in tried[:-1]] == [floor] + [bound] * 48
    assert all(accepted for *_, accepted in tried)


def test_the_controlled_walk_reads_declarations_as_a_callable_does():
    # declarations of the tests above, walked under the error control: in
    # place reads, cells and values that name another must carry across
    # accepted steps and survive retried ones
    walk_three_ways(("x2", "x0", "x1"), (),
                    lambda t, x, u: [x[2], x[0], x[1]], (1.0, -2.0, 3.0), h=None)
    k = -0.75
    walk_three_ways(("x1", "b", "w * v + c2"), (("c", k),),
                    lambda t, x, u: [x[1], x[0], t * u[0] + k],
                    (1.0, -2.0, 3.0), (Polynomial(0.2, (0.5, -1.0, 0.25)),),
                    values=(("a", "x0"), ("b", "a"), ("w", "t"), ("v", "u0"),
                            ("c2", "c")), h=None)

    def plain(t, x, u):
        cell = t // 0.1875
        return [wobble(cell), cell, wobble(cell), cell]

    walk_three_ways(("r", "cell", "q", "e"), (("d", 0.1875), ("wobble", wobble)),
                    plain, (0.5, -0.25, 0.0, 1.0), t1=1.0, h=None,
                    values=(("cell", "t // d"), ("r", "wobble(cell)"), ("q", "r"),
                            ("e", "cell")))
    # `stiffening`, whose derivative is a value that reads a state, read in
    # place at every stage: 12 of its attempts are retried
    walk_three_ways(("s",), (),
                    lambda t, x, u: [-(1e-4 + 0.5 * (t / 10.0) ** 8) * x[0]],
                    (1.0,), t1=10.0, h=None,
                    values=(("s", "-(1e-4 + 0.5 * (t / 10.0) ** 8) * x0"),))


def test_two_mass_windows_take_a_third_of_the_fixed_walks_f_evaluations(
    monkeypatch,
):
    # at the defaults both bounds exceed every window over MICRO_DIVISOR,
    # so each window's floor is that, below its ceiling, and a fixed walk
    # of the floor would take 4 * MICRO_DIVISOR f evaluations per window
    evals, windows = [0], []

    def counted(spec):
        def f(t, x, u):
            evals[0] += 1
            return spec.f(t, x, u)

        return replace(spec, f=f)

    def walk(spec, state, inputs, t_start, t_target):
        floor, ceiling = subsystem.micro_steps(spec, t_target - t_start)
        assert floor == (t_target - t_start) / MICRO_DIVISOR < ceiling
        windows.append(t_target - t_start)
        return step_to(spec, state, inputs, t_start, t_target)

    monkeypatch.setattr(master, "step_to", walk)
    problem = build_two_mass(TwoMassParams()).problem
    problem = replace(problem, subsystems=tuple(map(counted, problem.subsystems)))
    master.run_f3ornits(problem, master.MasterOptions())
    assert 3 * evals[0] <= 4 * MICRO_DIVISOR * len(windows)


# ---------------------------------------------- one kernel per common degree

@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(st.lists(_coeff, min_size=1, max_size=4).map(tuple),
                    min_size=2, max_size=3),
    lags=st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0)),
                  min_size=3, max_size=3),
    t_start=st.floats(-1.0, 1.0, allow_nan=False),
    window=st.floats(0.05, 2.0),
    declared=st.booleans(),
    adaptive=st.booleans(),
    callable_g=st.booleans(),
)
def test_a_padded_window_walks_as_the_kernel_of_its_exact_degrees(
    coeffs, lags, t_start, window, declared, adaptive, callable_g
):
    # step_to walks a window with the kernel of its inputs' highest degree,
    # each lower degree led by 0.0 coefficients and its own lead written
    # c_d + 0.0.  An input published after the window's start (a negative
    # lag) has tau < 0 at the start.  With tau finite each padded step
    # (+0.0) * tau + 0.0 is +0.0, so every stage's inputs, state and
    # outputs are the floats of the kernel compiled for the exact degrees,
    # zero signs included, for tau of either sign.  A callable g, called
    # once per kernel, gets the inputs at t_target as p(t_target) gives them
    m = len(coeffs)
    inputs = [Polynomial(t_start - lag, c) for c, lag in zip(coeffs, lags)]
    degrees = tuple(len(c) - 1 for c in coeffs)
    t_target = t_start + window
    window = t_target - t_start  # as step_to sees it
    exprs = (f"u0 * x1 - 0.5 * x0 + u{m - 1}", f"t * u{m - 1} - x1")
    outputs = ("x0", "x1", *(f"u{j}" for j in range(m)))
    seen = []

    def plain_g(t, x, u):
        seen.append(hexes(u))
        return [x[0], x[1], *u]

    g = plain_g if callable_g else Derivatives(outputs)

    def dynamics(log):
        def f(t, x, u):
            log.append(hexes((t, *x, *u)))
            return [u[0] * x[1] - 0.5 * x[0] + u[-1], t * u[-1] - x[1]]

        return Derivatives(exprs) if declared else f

    exact = _micro_walk("rk4", 2, degrees, exprs if declared else None, (),
                        2 + m if callable_g else outputs, (), adaptive=adaptive)
    h = window / MICRO_DIVISOR if adaptive else window / 8.0
    log, exact_log = [], []
    x, y = exact(dynamics(exact_log), g, [0.25, -0.0], t_start, t_target,
                 h, window if adaptive else h, inputs, "exact")
    spec = SubsystemSpec("padded", 2, m, 2 + m, dynamics(log), g, (0.25, -0.0))
    padded_x, padded_y = step_to(spec, spec.x_init, inputs, t_start, t_target,
                                 None if adaptive else h)
    assert list(spec.kernels) == [("rk4", max(degrees), adaptive)]
    assert hexes(padded_x) == hexes(x)
    assert hexes(padded_y) == hexes(y)
    assert log == exact_log
    assert seen == [hexes(p(t_target) for p in inputs)] * (2 * callable_g)


@pytest.mark.parametrize("end", ["start", "target"])
def test_a_window_whose_input_tau_overflows_names_the_input(end):
    # t - t_ref overflows to -inf at t_start or to +inf at t_target: a lead
    # padded under 0.0 * inf would walk NaN where the exact one does not,
    # so step_to refuses the window before walking it, naming the input
    t_start, t_target, t_ref = ((-1e308, 0.0, 1e308) if end == "start"
                                else (0.0, 1e308, -1e308))
    spec = SubsystemSpec("far", 1, 2, 1, lambda t, x, u: [u[0] + u[1] - x[0]],
                         lambda t, x, u: [x[0]], (0.0,))
    inputs = [Polynomial(0.0, (1.0, 0.5)), Polynomial(t_ref, (2.0,))]
    with pytest.raises(ValueError, match="far: input 1 has t - t_ref not finite"):
        step_to(spec, spec.x_init, inputs, t_start, t_target)


_OK, _CUBIC = Polynomial(0.0, (1.0,)), Polynomial(0.0, (0.0, 0.0, 0.0, 1.0))
#: over the window [-1e308, 0.0] these inputs' tau overflows at its start
_FAR, _FAR_QUAD = Polynomial(1e308, (2.0,)), Polynomial(1e308, (0.0, 0.0, 1.0))
_FAR_LINE = Polynomial(1.5e308, (2.0, 1.0))


@pytest.mark.parametrize("t_start,t_target,state,inputs,refusal", [
    (0.0, -1e308, (0.0, 0.0), [_FAR, _CUBIC, _OK],
     (ValueError, "bad: macro step must advance time (0.0 -> -1e+308)")),
    (-1e308, 0.0, (0.0, 0.0), [_FAR, _CUBIC, _OK],
     (ContractViolation, "bad: got 3 input polynomials, expected 2")),
    (-1e308, 0.0, (0.0, 0.0), [_FAR, _CUBIC],
     (ContractViolation, "bad: got 2 states, expected 1")),
    (-1e308, 0.0, (0.0,), [_FAR, _CUBIC],
     (ContractViolation, "bad: input 1 has degree 3, capability allows 1")),
    (-1e308, 0.0, (0.0,), [_CUBIC, _FAR_QUAD],
     (ContractViolation, "bad: input 0 has degree 3, capability allows 1")),
    (-1e308, 0.0, (0.0,), [_FAR, _FAR_QUAD],
     (ContractViolation, "bad: input 1 has degree 2, capability allows 1")),
    (-1e308, 0.0, (0.0,), [_FAR, _FAR_LINE],
     (ValueError, "bad: input 0 has t - t_ref not finite over [-1e+308, 0.0] "
                  "(t_ref = 1e+308)")),
], ids=["backwards", "input-count", "state-count", "over-degree",
        "lowest-over-degree", "over-degree-and-far", "lowest-far"])
def test_a_window_wrong_in_several_ways_is_refused_for_its_first_fault(
    t_start, t_target, state, inputs, refusal
):
    # step_to checks, in order: the window, the input count, the state
    # count, the lowest input over the capability, then the lowest input
    # whose tau is not finite; each window below also breaks every check
    # after the one it is refused for, as far as its inputs allow
    spec = SubsystemSpec("bad", 1, 2, 1, lambda t, x, u: [u[0] - x[0]],
                         lambda t, x, u: [x[0]], (0.0,), max_input_degree=1)
    kind, message = refusal
    with pytest.raises(kind) as exc:
        step_to(spec, state, inputs, t_start, t_target)
    assert type(exc.value) is kind and str(exc.value) == message


@pytest.mark.parametrize("build,walks,kinds", [
    # mass_right's nine pairs of input degrees are three common degrees
    (lambda: build_two_mass(TwoMassParams()), 6,
     {"mass_left": {("rk4", True)}, "mass_right": {("rk4", True)}}),
    # one input per subsystem, nothing to pad: a kernel per degree.  The
    # vehicle walks every window under error control; the controller, a
    # declared lag, steps every window in closed form
    (lambda: build_car(CarParams(seed=1, t_end=300.0)), 6,
     {"vehicle": {("rk4", True)}, "controller": {(subsystem.LAG, False)}}),
], ids=["two_mass", "car"])
def test_a_run_binds_one_walk_kernel_per_common_input_degree(
    build, walks, kinds, monkeypatch
):
    # and compiles exactly the kernels its specs bind, each once: one
    # kernel walks every window, whatever the signs of its inputs' taus
    subsystem._micro_walk.cache_clear()
    subsystem._lag_walk.cache_clear()
    compiled = []

    def recorded_compile(source, name, mode):
        compiled.append(name)
        return compile(source, name, mode)

    monkeypatch.setattr(subsystem, "compile", recorded_compile, raising=False)
    problem = build().problem
    master.run_f3ornits(problem, master.MasterOptions())
    bound = [walk.__code__.co_filename
             for spec in problem.subsystems for walk in spec.kernels.values()]
    assert len(bound) == walks
    assert sorted(name for name in compiled if " walk " in name) == sorted(bound)
    assert {spec.label: {(scheme, control) for scheme, _, control in spec.kernels}
            for spec in problem.subsystems} == kinds


def test_sources_and_generated_kernels_parse_on_the_python_floor(monkeypatch):
    # pyproject.toml's floor is Python 3.10: every module, and one kernel
    # per scheme and kind of walk, must parse in its grammar
    for path in sorted(Path(subsystem.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
    sources = {}

    def kept(source, name, mode):
        sources[name] = source
        return compile(source, name, mode)

    monkeypatch.setattr(subsystem, "compile", kept, raising=False)
    f = Derivatives(("-k * x0 + u0 + w", "x0 - s"), (("k", 2.0), ("dwell", 0.1)),
                    (("cell", "t // dwell"), ("w", "cell * 0.5 + u1"),
                     ("s", "x1 * u0")))
    g = Derivatives(("x0 + u1",))
    kinds = [(scheme, adaptive, declared)
             for scheme in SCHEMES for adaptive in (False, True)
             for declared in (False, True)
             if not adaptive or SCHEMES[scheme][3] is not None]
    for scheme, adaptive, declared in kinds:
        args = (f.exprs, f.values, g.exprs, g.values) if declared else (None, (), 1)
        subsystem._micro_walk.__wrapped__(scheme, 2, (2, 0), *args,
                                          adaptive=adaptive)
    subsystem._lag_walk.__wrapped__(2, (2, 0), ((0, 1, 0.5), (1, 0, 2.0)),
                                    g.exprs, g.values)
    assert len(sources) == len(kinds) + 1 == 7
    for name, source in sources.items():
        ast.parse(source, name, feature_version=(3, 10))


# ---------------------------------------------------------- closed-form lags

def make_lag(tau, declared=False):
    # x' = (u0 - x) / tau, y = x, declared a lag; u1 is read by nobody
    f = (Derivatives(("(u0 - x0) / tau",), (("tau", tau),)) if declared
         else lambda t, x, u: [(u[0] - x[0]) / tau])
    return SubsystemSpec("lag", 1, 2, 1, f, lambda t, x, u: [x[0]], (0.0,),
                         lags=(subsystem.Lag(0, 0, tau),))


@pytest.mark.parametrize("tau", [1e-3, 2.0])
@pytest.mark.parametrize("span", [1e-2, 1e2])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_a_lag_steps_in_closed_form_to_a_fine_rk4_walk(tau, span, degree):
    # a window of span time constants, an input that moves by about its
    # own size over the window and a start state 50 from it: the closed
    # form lands within 1e-10 of |x0| + |x1| of RK4 at a twentieth of the
    # window or of tau, whichever is shorter.  Its own rounding grows with
    # (tau / window)^degree, here 2.6e-9 of 100 at degree 3 and span 1e-2
    window, t0 = span * tau, 0.75
    spec = make_lag(tau)
    coeffs = (1.0, -2.0 / window, 3.0 / window**2, -4.0 / window**3)[:degree + 1]
    u = [Polynomial(t0 - 0.25 * window, coeffs), const_input(7.0)]
    x0 = [u[0](t0) + 50.0]
    x, y = step_to(spec, x0, u, t0, t0 + window)
    assert list(spec.kernels) == [(subsystem.LAG, degree, False)]
    fine, _ = step_to(spec, x0, u, t0, t0 + window, min(window, tau) / 20)
    assert abs(x[0] - fine[0]) <= 1e-10 * (abs(x0[0]) + abs(fine[0]))
    assert y == (x[0],)


def test_a_lag_reads_its_own_input_and_time_constant():
    # state 1 follows input 0 with 0.5 and state 0 input 2 with 0.25: each
    # state is its own exact solution, whatever the other
    f = lambda t, x, u: [(u[2] - x[0]) / 0.25, (u[0] - x[1]) / 0.5]
    spec = SubsystemSpec("pair", 2, 3, 1, f, lambda t, x, u: [x[0] - x[1]],
                         (1.0, -1.0), lags=(subsystem.Lag(1, 0, 0.5),
                                            subsystem.Lag(0, 2, 0.25)))
    u = [const_input(2.0), const_input(-5.0), Polynomial(0.0, (3.0, 1.0))]
    x, y = step_to(spec, spec.x_init, u, 0.0, 1.0)
    # x' = (3 + t - x) / 0.25 from 1: x = 3 + t - 0.25 - 1.75 exp(-4 t)
    assert x[0] == pytest.approx(3.75 - 1.75 * math.exp(-4.0), rel=1e-14)
    assert x[1] == pytest.approx(2.0 - 3.0 * math.exp(-2.0), rel=1e-14)
    assert y == (x[0] - x[1],)


def test_a_lag_keeps_the_walks_checks_and_its_declared_g():
    spec = make_lag(1e-3, declared=True)
    with pytest.raises(ValueError, match="must advance"):
        step_to(spec, (0.0,), [const_input(1.0)] * 2, 1.0, 1.0)
    with pytest.raises(ContractViolation, match="got 1 input polynomials"):
        step_to(spec, (0.0,), [const_input(1.0)], 0.0, 1.0)
    with pytest.raises(ContractViolation, match="capability allows 1"):
        step_to(replace(spec, max_input_degree=1), (0.0,),
                [Polynomial(0.0, (0.0, 0.0, 1.0)), const_input(1.0)], 0.0, 1.0)
    with pytest.raises(ValueError, match="input 1 has t - t_ref not finite"):
        step_to(spec, (0.0,), [const_input(1.0), Polynomial(-1e308, (1.0, 1.0))],
                0.0, 1e308)
    # a state that overflows
    with pytest.raises(DivergenceError, match="lag"):
        step_to(spec, (0.0,), [Polynomial(0.0, (0.0, 1e308)), const_input(0.0)],
                0.0, 10.0)
    # an output of a declared g that overflows
    with pytest.raises(DivergenceError, match="lag"):
        step_to(replace(spec, g=Derivatives(("1e308 * (x0 + u1)",))), (1e300,),
                [const_input(1e300), const_input(1e300)], 0.0, 1.0)
    # a declared g reads the closed form's state and its inputs at t_target
    spec = replace(spec, g=Derivatives(("x0 + 2.0 * u0 + t",)))
    u = [Polynomial(0.0, (1.0, 3.0)), const_input(0.0)]
    x, y = step_to(spec, (0.0,), u, 0.0, 0.5)
    assert y == (x[0] + 2.0 * u[0](0.5) + 0.5,)


def test_only_a_spec_whose_every_state_is_a_lag_steps_in_closed_form():
    # a spec that mixes a lag with another state walks RK4 under control,
    # and an explicit micro step walks the fixed steps it names
    u = [Polynomial(0.0, (1.0, 2.0)), const_input(0.0)]
    mixed = SubsystemSpec("mixed", 2, 2, 1,
                          lambda t, x, u: [(u[0] - x[0]) / 0.1, x[0]],
                          lambda t, x, u: [x[1]], (0.0, 0.0),
                          lags=(subsystem.Lag(0, 0, 0.1),))
    step_to(mixed, mixed.x_init, u, 0.0, 1.0)
    assert list(mixed.kernels) == [("rk4", 1, True)]
    lag = make_lag(0.1)
    step_to(lag, lag.x_init, u, 0.0, 1.0, 0.01)
    step_to(lag, lag.x_init, u, 0.0, 1.0)
    assert list(lag.kernels) == [("rk4", 1, False), (subsystem.LAG, 1, False)]


def test_a_lag_never_calls_f_and_steps_a_callable_f_as_a_declared_one():
    calls = []

    def f(t, x, u):
        calls.append(t)
        return [(u[0] - x[0]) / 1e-3]

    declared = make_lag(1e-3, declared=True)
    u = [Polynomial(0.25, (2.0, -1.0, 0.5, 0.125)), const_input(0.0)]
    x, y = step_to(declared, (5.0,), u, 0.5, 0.55)
    assert step_to(replace(declared, f=f), (5.0,), u, 0.5, 0.55) == (x, y)
    assert calls == []


@pytest.mark.parametrize("lags,match", [
    (((1, 0, 1e-3),), r"lag: lags\[0\]\.state 1 is out of range for 1 states"),
    (((-1, 0, 1e-3),), r"lag: lags\[0\]\.state -1 is out of range"),
    (((0, 2, 1e-3),), r"lag: lags\[0\]\.input 2 is out of range for 2 inputs"),
    (((0, 0, 1e-3), (0, 1, 1e-3)), r"lag: lags\[1\]\.state 0 is declared twice"),
    (((0, 0, 0.0),), r"lag: lags\[0\]\.tau must be finite and positive, got 0\.0"),
    (((0, 0, -1e-3),), r"lag: lags\[0\]\.tau must be finite and positive"),
    (((0, 0, math.nan),), r"lag: lags\[0\]\.tau must be finite and positive, got nan"),
    (((0, 0, math.inf),), r"lag: lags\[0\]\.tau must be finite and positive, got inf"),
])
def test_a_lag_declaration_out_of_range_is_refused_naming_its_field(lags, match):
    for declared in (False, True):
        with pytest.raises(ConfigError, match=match):
            replace(make_lag(1e-3, declared), lags=lags)


@pytest.mark.parametrize("expr,match", [
    ("(u1 - x0) / tau", "is not"),        # another input
    ("(u0 - x0) / (2.0 * tau)", "is not"),  # another time constant
    ("(x0 - u0) / tau", "is not"),        # the sign
    ("(u0 - x0) / tau + t", "is not"),    # reads the time
    ("(u0 - x0) / tau + 0.0 / (t - 1.0)", "fails at t = 1.0"),
])
def test_a_lag_that_disagrees_with_its_declared_f_is_refused(expr, match):
    f = Derivatives((expr,), (("tau", 1e-3),))
    with pytest.raises(ConfigError, match=rf"lag: lags\[0\]: .*{match}"):
        replace(make_lag(1e-3), f=f)
    # the same text written differently, or within 1e-9, is the lag
    for same in ("-(x0 - u0) * (1.0 / tau)", "u0 / tau - x0 / tau",
                 "(u0 - x0) / (tau * (1.0 + 1e-12))"):
        replace(make_lag(1e-3), f=Derivatives((same,), (("tau", 1e-3),)))
    # and a callable f is taken at its word
    replace(make_lag(1e-3), f=lambda t, x, u: [0.0])
