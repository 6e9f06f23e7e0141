"""Benchmark model physics, the seeded road noise, and the reference runs."""

import dataclasses
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from f3ornits.errors import ConfigError, DivergenceError
from f3ornits.coupling import CouplingGraph
from f3ornits.master import CosimProblem, run_jacobi
from f3ornits.models import (
    CarParams,
    TwoMassParams,
    _splitmix64,
    available_models,
    build_car,
    build_model,
    build_two_mass,
    compose_monolith,
    dwell_noise,
    monolithic_reference,
    piecewise_linear,
    reference_gap,
)
from f3ornits.poly import Polynomial
from f3ornits.subsystem import Derivatives, SubsystemSpec, step_to


def _rk4(rhs, x0, t0, t1, h):
    """Plain fixed-step integrator, local to the tests (independent of the
    library's), yielding (t, state) at every step."""
    x = list(x0)
    t = t0
    out = [(t, tuple(x))]
    n = len(x)
    steps = round((t1 - t0) / h)
    for i in range(steps):
        t = t0 + i * h
        k1 = rhs(t, x, ())
        k2 = rhs(t + h / 2, [x[j] + h / 2 * k1[j] for j in range(n)], ())
        k3 = rhs(t + h / 2, [x[j] + h / 2 * k2[j] for j in range(n)], ())
        k4 = rhs(t + h, [x[j] + h * k3[j] for j in range(n)], ())
        x = [
            x[j] + h / 6 * (k1[j] + 2 * (k2[j] + k3[j]) + k4[j])
            for j in range(n)
        ]
        out.append((t0 + (i + 1) * h, tuple(x)))
    return out


# ------------------------------------------------------------- noise sources

def test_splitmix_published_reference_vectors():
    # first two outputs of the well-known stream seeded with zero
    assert _splitmix64(0) == 0xE220A8397B1DCDAF
    assert _splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4


def test_dwell_noise_is_time_indexed_and_bounded():
    w = dwell_noise(7, 200.0, 0.1)
    assert w(0.31) == w(0.39)          # same dwell cell
    assert w(0.31) == w(0.31)          # pure function of t
    assert w(0.29) != w(0.31)          # cells are independent draws
    values = [w(0.1 * i + 0.05) for i in range(10_000)]
    assert all(-200.0 <= v <= 200.0 for v in values)
    assert abs(sum(values) / len(values)) < 10.0   # roughly centred
    assert dwell_noise(8, 200.0, 0.1)(0.31) != w(0.31)


# the road cache: a time spec is (i, where) about the dwell edge i * dwell
_ROAD_T = st.tuples(
    st.integers(0, 150), st.sampled_from(("below", "edge", "above", "mid"))
)


def _road_time(spec, dwell):
    i, where = spec
    t = i * dwell
    if where == "below":
        return math.nextafter(t, -math.inf)
    if where == "above":
        return math.nextafter(t, math.inf)
    return (i + 0.5) * dwell if where == "mid" else t


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    dwell=st.sampled_from((None, 0.3, 0.07)),
    pool=st.lists(_ROAD_T, min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 7), min_size=1, max_size=40),
)
# 0.5 // 0.1 is 4.0, but 0.5 * (1 / 0.1) is 5.0: after t = 0.55 (cell 5),
# a cache keyed on the product would keep cell 5's force at t = 0.5
@example(seed=7, dwell=None, pool=[(5, "mid"), (5, "edge")], picks=[0, 1])
def test_road_cache_reads_the_cell_of_every_t(seed, dwell, pool, picks):
    overrides = {} if dwell is None else {"perturb_dwell": dwell}
    # two models side by side, on the same cells but with different seeds
    models = [build_model("car", {"seed": s, **overrides}) for s in (seed, seed + 1)]
    p = models[0].params
    ts = [_road_time(pool[k % len(pool)], p.perturb_dwell) for k in picks]
    preset = piecewise_linear(p.preset_force)
    for t in ts:
        force = preset(t) if t < p.t_control_on else p.kp * (p.v_target - 0.0)
        for model in models:
            road = dwell_noise(model.params.seed, p.perturb_amp, p.perturb_dwell)(t)
            f_vehicle = model.problem.subsystems[0].f
            got = f_vehicle(t, [0.0, 0.0], [0.0])[1]
            assert got.hex() == ((0.0 + road) / p.mass).hex(), t
            got = model.monolith_rhs(t, [0.0, 0.0, 0.0], ())[1]
            assert got.hex() == ((force + road) / p.mass).hex(), t


def test_piecewise_linear_profile():
    f = piecewise_linear(((0.0, 0.0), (1.0, 4000.0), (3.0, 4000.0), (5.0, 0.0)))
    assert f(-1.0) == 0.0
    assert f(0.5) == 2000.0
    assert f(2.0) == 4000.0
    assert f(4.0) == 2000.0
    assert f(9.0) == 0.0
    with pytest.raises(ConfigError):
        piecewise_linear(((0.0, 0.0), (0.0, 1.0)))


# ----------------------------------------------------------------- two-mass

def test_two_mass_equilibrium_stays_at_rest():
    params = TwoMassParams(x1_0=0.0, t_end=5.0)
    model = build_two_mass(params)
    ref = monolithic_reference(model, record_dt=0.1)
    assert all(v == 0.0 for series in ref.series.values() for v in series)
    # a flat output has no amplitude to scale a gap by, and must not raise
    gaps = reference_gap(model, record_dt=0.1)
    assert all(g == 0.0 for g in gaps.values())
    trace = run_jacobi(model.problem, 0.5)
    for st in trace.subsystems.values():
        assert all(
            v == 0.0 for j in range(st.n_out) for v in st.column(f"y{j}")
        )


def test_two_mass_initial_coupling_force():
    model = build_two_mass()
    trace = run_jacobi(
        build_two_mass(TwoMassParams(t_end=1.0)).problem, 0.5
    )
    p = model.params
    expected = p.k2 * (p.x1_0 - p.x2_0)
    assert trace.subsystems["mass_right"].column("y0")[0] == expected


def test_two_mass_energy_never_increases_between_switch_free_instants():
    model = build_two_mass()
    p = model.params

    def energy(s):
        x1, v1, x2, v2 = s
        return 0.5 * (
            p.m1 * v1**2 + p.m2 * v2**2
            + p.k1 * x1**2 + p.k3 * x2**2 + p.k2 * (x1 - x2) ** 2
        )

    path = _rk4(model.monolith_rhs, model.monolith_x0, 0.0, 20.0, 1e-3)
    energies = [energy(s) for _, s in path]
    e0 = energies[0]
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-12 * e0


def test_two_mass_mirror_symmetry_before_the_switch():
    params = TwoMassParams(x1_0=0.1, x2_0=-0.1)
    model = build_two_mass(params)
    path = _rk4(model.monolith_rhs, model.monolith_x0, 0.0, 50.0, 1e-3)
    worst = max(abs(s[0] + s[2]) for _, s in path)
    assert worst <= 1e-6


def test_two_mass_switch_kinks_the_coupling_force():
    model = build_two_mass()
    p = model.params
    coarse = _rk4(model.monolith_rhs, model.monolith_x0, 0.0, 99.0, 1e-3)
    fine = _rk4(model.monolith_rhs, coarse[-1][1], 99.0, 101.0, 1e-4)
    fc = model.output_map[("mass_right", 0)]
    t = [ti for ti, _ in fine]
    f = [fc(ti, s) for ti, s in fine]

    def slope_jump(t_at, delta=0.01):
        i = min(range(len(t)), key=lambda k: abs(t[k] - t_at))
        d = round(delta / 1e-4)
        left = (f[i] - f[i - d]) / (t[i] - t[i - d])
        right = (f[i + d] - f[i]) / (t[i + d] - t[i])
        return abs(right - left)

    at_switch = slope_jump(p.t_switch)
    elsewhere = max(slope_jump(99.5), slope_jump(100.5))
    assert at_switch > 5.0 * elsewhere


# ---------------------------------------------------------------------- car

def test_controller_speed_estimate_tracks_a_linear_input():
    model = build_car(CarParams(seed=1))
    controller = model.problem.subsystems[1]
    p = model.params
    u = Polynomial(20.0, (3.0, 0.75))        # position ramp, slope 0.75
    state = [u(20.0)]
    state, y = step_to(controller, state, [u], 20.0, 25.0)
    v_est = p.v_target - y[0] / p.kp
    assert abs(v_est - 0.75) < 1e-9


def test_controller_estimate_collapses_on_held_input():
    model = build_car(CarParams(seed=1))
    controller = model.problem.subsystems[1]
    p = model.params
    held = Polynomial(20.0, (5.0,))
    state = [held(20.0) - 5.0]               # v_est starts at 5000
    state, y = step_to(controller, state, [held], 20.0, 20.05)
    v_est = p.v_target - y[0] / p.kp
    assert abs(v_est) < 1e-9


def test_car_reference_speed_settles_near_target():
    model = build_car(CarParams(seed=7))
    ref = monolithic_reference(model)
    t = ref.t
    x = ref.series[("vehicle", 0)]
    speeds = [
        (x[i] - x[i - 1]) / (t[i] - t[i - 1])
        for i in range(1, len(t))
        if t[i] >= 25.0
    ]
    mean = sum(speeds) / len(speeds)
    assert abs(mean - model.params.v_target) < 0.5


_TWO_MASS = build_two_mass()
_CAR = build_car(CarParams(seed=7))


@settings(max_examples=200, deadline=None)
@given(
    t=st.one_of(
        st.floats(0.0, 300.0),
        st.sampled_from([0.0, 10.0, 100.0, math.nextafter(100.0, 0.0)]),
    ),
    s=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
)
def test_monolith_rhs_is_the_split_models_f_bit_for_bit(t, s):
    # the monolith is the co-simulation's own equations with the coupling
    # closed: each of its derivatives is a subsystem's f, fed the other
    # subsystem's output at the same state, to the last bit
    left, right = _TWO_MASS.problem.subsystems
    x1, v1, x2, v2 = s
    fc = right.g(t, [x2, v2], [x1, v1])[0]
    split = left.f(t, [x1, v1], [fc]) + right.f(t, [x2, v2], [x1, v1])
    whole = _TWO_MASS.monolith_rhs(t, s, ())
    assert [v.hex() for v in whole] == [v.hex() for v in split]

    vehicle, controller = _CAR.problem.subsystems
    x, v, xc = s[:3]
    force = controller.g(t, [xc], [x])[0]
    split = vehicle.f(t, [x, v], [force]) + controller.f(t, [xc], [x])
    whole = _CAR.monolith_rhs(t, [x, v, xc], ())
    assert [v.hex() for v in whole] == [v.hex() for v in split]


# ------------------------------------------------------ the composed monolith

def _chain(graph=None, k_source=0.5, k_rest=0.5):
    """Three subsystems in a loop, 0 -> 1 -> 2 -> 0: 0's output reads only
    its state, 1's and 2's also their input (feed-through).  Each declares
    values; 1 names e once for its f and its g."""
    c0 = (("k", k_source), ("sin", math.sin))
    c = (("k", k_rest), ("sin", math.sin))
    v1 = (("e", "u0 - x0"), ("w", "k * t"))
    v2 = (("s", "sin(u0 * t)"),)
    specs = (
        SubsystemSpec("source", 2, 1, 1,
                      Derivatives(("x1", "-k * x0 - 0.25 * x1 + u0"), c0),
                      Derivatives(("x0",), c0), (1.0, 0.0)),
        SubsystemSpec("lag", 1, 1, 1, Derivatives(("e * w",), c, v1),
                      Derivatives(("x0 + 2.0 * e",), c, v1), (0.5,)),
        SubsystemSpec("shape", 1, 1, 1, Derivatives(("s - x0",), c, v2),
                      Derivatives(("x0 * s + u0",), c, v2), (-0.25,)),
    )
    graph = graph or CouplingGraph({(0, 0): (2, 0), (1, 0): (0, 0), (2, 0): (1, 0)})
    return CosimProblem(specs, graph, 0.0, 1.0, (0.1,) * 3)


def _closed_loop(problem):
    """The chain's right-hand side and outputs, closed by hand: each g in
    feed-through order, then each f, fed the outputs at the same state."""
    source, lag, shape = problem.subsystems

    def rhs(t, s):
        y0 = source.g(t, s[0:2], [])[0]
        y1 = lag.g(t, s[2:3], [y0])[0]
        y2 = shape.g(t, s[3:4], [y1])[0]
        derivatives = (source.f(t, s[0:2], [y2]) + lag.f(t, s[2:3], [y0])
                       + shape.f(t, s[3:4], [y1]))
        return derivatives, {("source", 0): y0, ("lag", 0): y1, ("shape", 0): y2}

    return rhs


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(-10.0, 10.0),
    s=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
)
def test_composed_chain_is_the_hand_closed_loop_bit_for_bit(t, s):
    problem = _chain()
    rhs, x0, readers = compose_monolith(problem)
    assert x0 == (1.0, 0.0, 0.5, -0.25)
    derivatives, outputs = _closed_loop(problem)(t, s)
    assert [v.hex() for v in rhs(t, s, ())] == [v.hex() for v in derivatives]
    assert {key: fn(t, s).hex() for key, fn in readers.items()} == {
        key: y.hex() for key, y in outputs.items()
    }


def test_composed_chain_walks_to_the_hand_closed_loop_bits():
    # the walk evaluates the composed values only as often as they change,
    # and still reaches the state a plain closure of the loop reaches
    problem = _chain()
    rhs, x0, _ = compose_monolith(problem)
    closed = _closed_loop(problem)
    ends = []
    for f in (rhs, lambda t, x, u: closed(t, x)[0]):
        spec = SubsystemSpec("monolith", 4, 0, 0, f, lambda t, x, u: (), x0)
        x, _ = step_to(spec, x0, (), 0.25, 1.0, 0.01)
        ends.append([v.hex() for v in x])
    assert ends[0] == ends[1]


def _callable(problem, k, key):
    """The problem with subsystem k's f or g behind a plain closure."""
    spec = problem.subsystems[k]
    declared = getattr(spec, key)
    specs = list(problem.subsystems)
    specs[k] = dataclasses.replace(
        spec, **{key: lambda t, x, u: declared(t, x, u)}
    )
    return dataclasses.replace(problem, subsystems=tuple(specs))


@pytest.mark.parametrize("make,match", [
    # lag reads shape's output and shape reads lag's, each with feed-through
    (lambda: _chain(CouplingGraph({(0, 0): (2, 0), (1, 0): (2, 0), (2, 0): (1, 0)})),
     r"cyclic feed-through: .*lag:0"),
    (lambda: _callable(_chain(), 1, "f"), "lag: f is a black box"),
    (lambda: _callable(_chain(), 2, "g"), "shape: g is a black box"),
    (lambda: _chain(k_source=0.75), "lag: f defines constant 'k' differently"),
    (lambda: _chain(k_source=0.0, k_rest=-0.0),
     "lag: f defines constant 'k' differently"),
    (lambda: _chain(CouplingGraph({(0, 0): (2, 0), (1, 0): (0, 0)})),
     "shape: input 0 is fed by no output"),
], ids=["cycle", "callable f", "callable g", "constants", "signed zero",
        "unfed input"])
def test_composer_rejects_what_it_cannot_close(make, match):
    with pytest.raises(ConfigError, match=match):
        compose_monolith(make())


# ------------------------------------------------------------ the reference

#: frozen from the reference integrator at a step of 1e-4 s; the RK2
#: cross-check below guards against a wrong right-hand side slipping in
#: unnoticed
GOLDEN_TWO_MASS = {
    50.0: {
        ("mass_left", 0): 0.003813616004210131,
        ("mass_left", 1): 0.0013716776101502077,
        ("mass_right", 0): -1.6606648866648725e-06,
    },
    100.0: {
        ("mass_left", 0): 0.00025665894471698107,
        ("mass_left", 1): 0.00020575393921104044,
        ("mass_right", 0): -2.6526152638149538e-08,
    },
    150.0: {
        ("mass_left", 0): 2.1266654737308725e-06,
        ("mass_left", 1): 4.182741225210621e-06,
        ("mass_right", 0): 3.1912427405853346e-06,
    },
}


def test_two_mass_reference_golden_fixtures():
    model = build_two_mass()
    ref = monolithic_reference(model, micro_step=1e-4)
    cross = monolithic_reference(model, micro_step=1e-4, scheme="rk2")
    for t_at, expected in GOLDEN_TWO_MASS.items():
        i = ref.t.index(t_at)
        for key, value in expected.items():
            assert ref.series[key][i] == pytest.approx(value, abs=1e-12)
            assert abs(ref.series[key][i] - cross.series[key][i]) < 1e-7


#: the smallest rmse the tests score: criterion 4's magnitude-norm run on
#: two_mass, in % of amplitude
SMALLEST_SCORED_RMSE_PCT = 0.0073
#: the rmse of vehicle:0 in the default car run at seed 7
CAR_SEED_7_RMSE_PCT = 0.069


@pytest.mark.parametrize("model,key,score", [
    (build_two_mass(), ("mass_left", 0), SMALLEST_SCORED_RMSE_PCT),
    (build_car(CarParams(seed=7)), ("vehicle", 0), CAR_SEED_7_RMSE_PCT),
], ids=["two_mass", "car"])
def test_default_reference_step_is_far_finer_than_the_scores(model, key, score):
    # each model's own step; two_mass runs its 200 s through t_switch
    ref = monolithic_reference(model)
    assert ref.micro_step == model.reference_step
    assert ref.t[-1] == model.problem.t_end
    assert 0.0 < reference_gap(model)[key] < 0.01 * score


def test_reference_walks_once_and_pays_for_its_gap_only_when_asked():
    # 500 steps of 1e-3: 2000 right-hand sides for the reference, then 1000
    # for the doubled run of the gap, once per session
    plain = build_two_mass(TwoMassParams(t_end=0.5, x1_0=0.125))
    calls = [0]

    def counted(t, x, u):
        calls[0] += 1
        return plain.monolith_rhs(t, x, u)

    model = dataclasses.replace(plain, monolith_rhs=counted)
    monolithic_reference(model, record_dt=0.1)
    assert calls[0] == 4 * 500
    reference_gap(model, record_dt=0.1)
    assert calls[0] == 4 * 500 + 4 * 250
    reference_gap(model, record_dt=0.1)
    monolithic_reference(model, record_dt=0.1)
    assert calls[0] == 4 * 750


def test_reference_gap_is_infinite_when_the_doubled_step_diverges():
    # the filter's RK4 is stable at h / tau_diff = 2 but not at 4
    model = build_car(CarParams(seed=7, t_end=5.0))
    ref = monolithic_reference(model, micro_step=2e-3, record_dt=0.02)
    assert all(map(math.isfinite, ref.series[("vehicle", 0)]))
    gaps = reference_gap(model, micro_step=2e-3, record_dt=0.02)
    assert gaps == {("controller", 0): math.inf, ("vehicle", 0): math.inf}


@pytest.mark.parametrize("scheme", ["rk4", "rk2"])
def test_reference_gap_over_an_odd_step_count(scheme):
    # 2001 steps of 1e-3: the doubled run ends on t_end with a single step,
    # and its gap stays what it is over the even 2000
    odd_model = build_two_mass(TwoMassParams(t_end=2.001))
    odd = monolithic_reference(odd_model, record_dt=0.002, scheme=scheme)
    assert odd.t[-1] == pytest.approx(2.001)
    odd_gaps = reference_gap(odd_model, record_dt=0.002, scheme=scheme)
    even_gaps = reference_gap(
        build_two_mass(TwoMassParams(t_end=2.0)), record_dt=0.002, scheme=scheme
    )
    for key, gap in even_gaps.items():
        assert odd_gaps[key] == pytest.approx(gap, rel=0.01)


def test_reference_memory_does_not_grow_with_the_record_stride():
    # 10,000 micro steps in one record window, walked by one step_to call:
    # the walk keeps no list that grows with its step count (a walk that
    # stored its micro grid would peak at about 1.1 MB here)
    model = build_two_mass(TwoMassParams(t_end=0.01))
    tracemalloc.start()
    try:
        monolithic_reference(model, micro_step=1e-6, record_dt=0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_reference_matches_the_test_local_rk4_across_the_switch():
    # the reference walks step_to window by window; the oracle walks one
    # plain loop over the whole horizon, through t_switch = 100
    model = build_two_mass(TwoMassParams(t_end=120.0))
    ref = monolithic_reference(model, micro_step=1e-3, record_dt=0.1)
    path = _rk4(model.monolith_rhs, model.monolith_x0, 0.0, 120.0, 1e-3)[::100]
    assert ref.t == tuple(t for t, _ in path)
    for key, series in ref.series.items():
        fn = model.output_map[key]
        worst = max(abs(v - fn(t, s)) for v, (t, s) in zip(series, path))
        assert worst <= 1e-11


def test_reference_blow_up_is_a_divergence():
    model = build_two_mass(TwoMassParams(m1=1e-12, t_end=1.0))
    for scheme in ("rk4", "rk2"):
        with pytest.raises(DivergenceError, match="monolith"):
            monolithic_reference(model, scheme=scheme)


@pytest.mark.parametrize("t_end", [-1.0, 0.0, math.nan, math.inf])
def test_reference_refuses_a_horizon_it_cannot_walk(t_end):
    # built through the API, past materialize: a horizon at or before t_init
    # gave a one-point reference, nan a raw ValueError, inf a refusal of the
    # micro step
    model = build_two_mass(TwoMassParams(t_end=t_end))
    with pytest.raises(ConfigError, match="'t_end'"):
        monolithic_reference(model)


def test_reference_step_refinement_changes_little():
    model = build_two_mass(TwoMassParams(t_end=20.0))
    a = monolithic_reference(model, micro_step=1e-4, record_dt=0.1)
    b = monolithic_reference(model, micro_step=5e-5, record_dt=0.1)
    for key in a.series:
        scale = 1.0 + max(abs(v) for v in a.series[key])
        worst = max(
            abs(x - y) for x, y in zip(a.series[key], b.series[key])
        )
        assert worst <= 1e-8 * scale


def test_reference_rejects_incommensurate_grids():
    model = build_two_mass(TwoMassParams(t_end=20.0))
    with pytest.raises(ConfigError, match="'record_dt'"):
        monolithic_reference(model, micro_step=1e-4, record_dt=2.5e-4)
    with pytest.raises(ConfigError, match="'record_dt'"):
        monolithic_reference(model, micro_step=1e-3, record_dt=3e-3)
    with pytest.raises(ConfigError):
        monolithic_reference(model, scheme="euler")


@pytest.mark.parametrize("scheme", ["rk4", "rk2"])
def test_reference_reaches_a_horizon_off_its_grid(scheme):
    # 20 s is 6666.7 steps of 3e-3: the last record window ends on t_end
    # with one short step, and lands where a finer on-grid run does
    model = build_two_mass(TwoMassParams(t_end=20.0))
    ref = monolithic_reference(model, micro_step=3e-3, record_dt=6e-3,
                               scheme=scheme)
    assert ref.t[-2:] == (6666 * 3e-3, 20.0)
    fine = monolithic_reference(model, micro_step=1e-3, record_dt=0.1)
    assert fine.t[-1] == 20.0
    tol = 1e-11 if scheme == "rk4" else 2e-6
    for key, series in fine.series.items():
        assert ref.series[key][-1] == pytest.approx(series[-1], abs=tol)


# -------------------------------------------------------------- the registry

def test_registry_lists_and_builds():
    assert available_models() == ("car", "two_mass")
    model = build_model("two_mass", {"k1": 5.0})
    assert model.params.k1 == 5.0
    car = build_model("car", {"seed": 3.0})
    assert car.params.seed == 3 and isinstance(car.params.seed, int)


def test_registry_rejects_unknowns():
    with pytest.raises(ConfigError, match="unknown model"):
        build_model("pendulum")
    with pytest.raises(ConfigError, match="k9"):
        build_model("two_mass", {"k9": 1.0})


@pytest.mark.parametrize("model,name", [
    ("two_mass", "m1"), ("two_mass", "m2"),
    ("car", "mass"), ("car", "tau_diff"), ("car", "perturb_dwell"),
])
def test_registry_rejects_non_positive_divisors(model, name):
    for value in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigError, match=f"'{name}'"):
            build_model(model, {name: value})


def test_micro_step_bounds_follow_the_parameters():
    def bounds(name, overrides):
        model = build_model(name, overrides)
        return {s.label: s.max_micro_step for s in model.problem.subsystems}

    car = bounds("car", {"seed": 7})
    assert car == {"vehicle": 1e-3, "controller": 1e-3}
    # the reference step: tau_diff / 2, moved down onto the record grid
    assert build_model("car", {"seed": 7}).reference_step == 5e-4
    assert build_model("car", {"seed": 7, "tau_diff": 3e-3}).reference_step == 0.01 / 8
    assert bounds("car", {"seed": 7, "tau_diff": 2e-3})["controller"] == 2e-3
    assert bounds("car", {"seed": 7, "perturb_dwell": 0.5})["vehicle"] == 0.5 / 100
    two_mass = bounds("two_mass", {})
    assert two_mass["mass_left"] == pytest.approx(1.0 / 1.1)
    assert two_mass["mass_right"] == pytest.approx(1.0 / (math.sqrt(11.0) + 0.2))
    assert bounds("two_mass", {"k2": 1e5})["mass_right"] < 3.2e-3
    # a mass with neither spring nor damper of its own has no bound
    assert bounds("two_mass", {"k1": 0.0, "d1": 0.0})["mass_left"] is None
