"""End-to-end acceptance gate for the whole package.

Eight checks: calibration exactness, the local error-order law, exact
degeneration to the fixed-grid baseline, the step/accuracy trade-off on the
switched oscillator, C1 interface smoothness, the cruise-control qualitative
story, the damped-envelope recursion against an independent transcription,
and the scheduler contract on randomized graphs.  Each test prints one
PASS/FAIL line (run pytest -s to see them all) and enforces its own
wall-clock budget.
"""

import math
import random
import time
from dataclasses import replace

from f3ornits import master
from f3ornits.config import RunConfig, materialize
from f3ornits.coupling import CouplingGraph
from f3ornits.master import (
    CosimProblem,
    MasterOptions,
    ScheduleEntry,
    reconcile,
    run_f3ornits,
    run_jacobi,
)
from f3ornits.models import CarParams, build_car, build_two_mass
from f3ornits.orders import estimate_output, fit_extrapolation, select_order
from f3ornits.coupling import SampleHistory
from f3ornits.poly import Polynomial, fit_constrained_least_squares, fit_hermite
from f3ornits.report import score_trace
from f3ornits.stepper import DampedBounds, Tolerances, update_damped_bounds
from f3ornits.subsystem import SubsystemSpec


def _finish(number, title, failures, t_start, budget_s):
    elapsed = time.perf_counter() - t_start
    if elapsed >= budget_s:
        failures.append(f"runtime {elapsed:.2f} s exceeds {budget_s} s budget")
    verdict = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {title}: {verdict} ({elapsed:.2f} s)")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _close(a, b, rel=1e-9):
    return abs(a - b) <= rel * (1.0 + abs(b))


# --------------------------------------------------------------- criterion 1

def test_criterion_1_polynomial_exactness():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(1234)
    for trial in range(60):
        d = rng.randrange(0, 3)
        truth = Polynomial(
            rng.uniform(-3.0, 3.0),
            tuple(rng.uniform(-2.0, 2.0) for _ in range(d + 1)),
        )
        start = rng.uniform(-5.0, 5.0)
        times = [start]
        for _ in range(3):
            times.append(times[-1] + rng.uniform(0.05, 1.0))
        probe = times[-1] + rng.uniform(0.1, 2.0)

        ex_history = SampleHistory()
        for t in times[: d + 1]:
            ex_history.push(t, truth(t))
        ex = fit_extrapolation(ex_history, d)
        if not _close(ex(probe), truth(probe)):
            failures.append(f"trial {trial}: extrapolation misses degree {d}")

        cls = fit_constrained_least_squares(
            tuple(times[: d + 2]), tuple(truth(t) for t in times[: d + 2])
        )
        if not _close(cls(probe), truth(probe)):
            failures.append(f"trial {trial}: cls misses degree {d}")

        history = SampleHistory()
        for t in times:
            history.push(t, truth(t))
        decision = select_order(history, probe, truth(probe))
        if decision.order < d:
            failures.append(
                f"trial {trial}: selected order {decision.order} < degree {d}"
            )
        est = estimate_output(history, decision)
        far = probe + rng.uniform(0.1, 1.0)
        if not _close(est(far), truth(far)):
            failures.append(f"trial {trial}: estimated output misses degree {d}")

        z0, z1 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        dz0, dz1 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        ta, tb = times[0], times[0] + rng.uniform(0.2, 2.0)
        h = fit_hermite(ta, tb, z0, z1, dz0, dz1)
        hd = h.derivative()
        for got, want, what in (
            (h(ta), z0, "value at start"),
            (h(tb), z1, "value at end"),
            (hd(ta), dz0, "slope at start"),
            (hd(tb), dz1, "slope at end"),
        ):
            if not _close(got, want):
                failures.append(f"trial {trial}: Hermite {what}")
    _finish(1, "polynomial exactness", failures, t0, 1.0)


# --------------------------------------------------------------- criterion 2

def test_criterion_2_error_order_scaling():
    t0 = time.perf_counter()
    failures = []
    deltas = (0.2, 0.1, 0.05, 0.025)
    anchors = [0.1 + 2.0 * math.pi * k / 40.0 for k in range(40)]
    for p in (0, 1, 2):
        mean_errs = []
        for dt in deltas:
            errs = []
            for a in anchors:
                times = tuple(a - (p - i) * dt for i in range(p + 1))
                history = SampleHistory()
                for t in times:
                    history.push(t, math.sin(t))
                fit = fit_extrapolation(history, p)
                pred = fit(a + dt)
                errs.append(abs(pred - math.sin(a + dt)))
            mean_errs.append(sum(errs) / len(errs))
        # least-squares slope of log(err) against log(dt)
        xs = [math.log(dt) for dt in deltas]
        ys = [math.log(e) for e in mean_errs]
        xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sum(
            (x - xm) ** 2 for x in xs
        )
        if abs(slope - (p + 1)) > 0.2:
            failures.append(
                f"order {p}: observed slope {slope:.3f}, expected {p + 1} +- 0.2"
            )
    _finish(2, "local error-order scaling", failures, t0, 5.0)


# --------------------------------------------------------------- criterion 3

def _degenerate_options(dt: float) -> MasterOptions:
    return MasterOptions(
        force_order=0,
        smoothing=False,
        tolerances=Tolerances(rho_min=1.0, rho_max=1.0, dt_min=dt, dt_max=dt),
    )


def _max_trace_diff(a, b) -> float:
    worst = 0.0
    for label, sa in a.subsystems.items():
        sb = b.subsystems[label]
        if sa.n_rows != sb.n_rows:
            return math.inf
        for name in ["t"] + [f"y{j}" for j in range(sa.n_out)]:
            for va, vb in zip(sa.column(name), sb.column(name)):
                worst = max(worst, abs(va - vb))
    return worst


def test_criterion_3_degenerates_to_the_fixed_grid_baseline():
    t0 = time.perf_counter()
    failures = []
    for model, dt in (
        (build_two_mass(), 0.2),
        (build_car(CarParams(seed=7)), 0.05),
    ):
        # the startup step must match the grid
        specs = tuple(replace(s, dt0=dt) for s in model.problem.subsystems)
        problem = replace(model.problem, subsystems=specs)
        forced = run_f3ornits(problem, _degenerate_options(dt))
        grid = run_jacobi(problem, dt)
        worst = _max_trace_diff(forced, grid)
        if not worst <= 1e-12:
            failures.append(f"{model.name}: max trace difference {worst:.3e}")
    _finish(3, "degeneracy equivalence", failures, t0, 10.0)


# --------------------------------------------------------------- criterion 4

def test_criterion_4_two_mass_trade_off():
    t0 = time.perf_counter()
    failures = []
    setup = materialize(RunConfig(model="two_mass", tol_rel=1e-2))
    variable = setup.variable

    grid = run_jacobi(setup.model.problem, 0.1)
    grid_rmse = score_trace(grid, setup.model, variable)

    steps, rmse = {}, {}
    for norm in ("magnitude", "damped", "amplitude"):
        opts = replace(
            setup.options,
            calibration="extrapolation", smoothing=False, error_norm=norm,
        )
        trace = run_f3ornits(setup.model.problem, opts)
        steps[norm] = trace.total_events
        rmse[norm] = score_trace(trace, setup.model, variable)

    if not steps["magnitude"] >= steps["damped"] >= steps["amplitude"]:
        failures.append(f"step ordering violated: {steps}")
    if not rmse["magnitude"] <= grid_rmse:
        failures.append(
            f"magnitude rmse {rmse['magnitude']:.4f} > grid {grid_rmse:.4f}"
        )
    if not steps["magnitude"] <= 1.10 * grid.total_events:
        failures.append(
            f"magnitude steps {steps['magnitude']} > 110% of {grid.total_events}"
        )
    if not rmse["damped"] <= grid_rmse:
        failures.append(
            f"damped rmse {rmse['damped']:.4f} > grid {grid_rmse:.4f}"
        )
    if not steps["damped"] <= 0.60 * grid.total_events:
        failures.append(
            f"damped steps {steps['damped']} > 60% of {grid.total_events}"
        )
    _finish(4, "two-mass step/accuracy trade-off", failures, t0, 60.0)


# --------------------------------------------------------------- criterion 5

def test_criterion_5_smoothed_inputs_are_c1():
    t0 = time.perf_counter()
    failures = []
    setup = materialize(RunConfig(model="two_mass", t_end=50.0, smoothing=True))
    trace = run_f3ornits(setup.model.problem, setup.options)
    joints = 0
    smoothed_plans = 0
    for label, st in trace.subsystems.items():
        t = st.column("t")
        for i in range(st.n_in):
            coeffs = list(zip(*(st.column(f"u{i}_c{c}") for c in range(4))))
            flags = st.column(f"u{i}_smoothed")
            plans = [
                (t[r], Polynomial(t[r - 1], coeffs[r]), flags[r])
                for r in range(1, st.n_rows)
            ]
            smoothed_plans += sum(flag for _, _, flag in plans)
            for (t_joint, left, _), (_, right, _) in zip(plans, plans[1:]):
                joints += 1
                u = left(t_joint)
                du = left.derivative()(t_joint)
                if abs(u - right(t_joint)) > 1e-10 * (1.0 + abs(u)):
                    failures.append(
                        f"{label} input {i}: value jump at t = {t_joint:.6g}"
                    )
                if abs(du - right.derivative()(t_joint)) > 1e-8 * (1.0 + abs(du)):
                    failures.append(
                        f"{label} input {i}: slope jump at t = {t_joint:.6g}"
                    )
    if joints < 10:
        failures.append(f"only {joints} interior joints examined")
    if smoothed_plans == 0:
        failures.append("no plan was actually smoothed")
    _finish(5, "C1 interface smoothing", failures, t0, 10.0)


# --------------------------------------------------------------- criterion 6

def test_criterion_6_car_runaway_and_recovery():
    t0 = time.perf_counter()
    failures = []
    held = materialize(RunConfig(model="car", method="jacobi", dt=0.05, seed=7))
    p = held.model.params
    grid = run_jacobi(held.model.problem, 0.05)

    tv, xv = grid.output_series("vehicle", 0)
    tc, fc = grid.output_series("controller", 0)
    blind_rows = checked = 0
    for r in range(1, len(tv)):
        if tv[r] < 10.05:
            continue
        checked += 1
        v_true = (xv[r] - xv[r - 1]) / (tv[r] - tv[r - 1])
        v_seen = p.v_target - fc[r] / p.kp
        if abs(v_seen) < 0.05 * abs(v_true):
            blind_rows += 1
    if checked == 0 or blind_rows < checked:
        failures.append(
            f"controller saw the true speed on {checked - blind_rows} of "
            f"{checked} held-input steps"
        )
    v_final = (xv[-1] - xv[-2]) / (tv[-1] - tv[-2])
    if not v_final > 1.5 * p.v_target:
        failures.append(f"no runaway: final speed {v_final:.1f} m/s")

    adaptive = materialize(RunConfig(model="car", seed=7))
    trace = run_f3ornits(adaptive.model.problem, adaptive.options)
    ta, xa = trace.output_series("vehicle", 0)
    tail_start = ta[-1] - 0.2 * (ta[-1] - ta[0])
    tail = [
        (xa[r] - xa[r - 1]) / (ta[r] - ta[r - 1])
        for r in range(1, len(ta))
        if ta[r] >= tail_start
    ]
    off = [v for v in tail if abs(v - p.v_target) > 0.10 * p.v_target]
    if not tail:
        failures.append("no samples in the final 20% of the adaptive run")
    if off:
        failures.append(
            f"{len(off)} of {len(tail)} closing speeds leave the 10% band "
            f"(worst {max(off, key=lambda v: abs(v - p.v_target)):.2f} m/s)"
        )
    _finish(6, "car runaway under held inputs, recovery under the method",
            failures, t0, 30.0)


# --------------------------------------------------------------- criterion 7

def test_criterion_7_damped_envelope_recursion():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(77)
    for trial in range(1000):
        nu = 0.0 if trial % 3 == 0 else rng.uniform(0.0, 2.0)
        y = rng.uniform(-5.0, 5.0)
        lib = DampedBounds.from_first_sample(y)
        # independent transcription of the same recursion
        dmax = dmin = gmax = gmin = y
        alpha = 0.0
        for _ in range(rng.randrange(2, 30)):
            dt = rng.uniform(0.01, 0.5)
            if rng.random() < 0.2:
                y = rng.uniform(-50.0, 50.0)      # occasional burst
            else:
                y += rng.uniform(-1.0, 1.0)
            lib = update_damped_bounds(lib, y, dt, nu)
            shrink = 0.5 * nu * dt * alpha
            dmax = max(y, dmax - shrink)
            dmin = min(y, dmin + shrink)
            alpha = dmax - dmin
            gmax = max(gmax, y)
            gmin = min(gmin, y)
            if (lib.damp_max, lib.damp_min, lib.alpha) != (dmax, dmin, alpha):
                failures.append(f"trial {trial}: recursion mismatch")
                break
            if (lib.global_max, lib.global_min) != (gmax, gmin):
                failures.append(f"trial {trial}: extrema mismatch")
                break
            if nu == 0.0 and (lib.damp_max, lib.damp_min) != (gmax, gmin):
                failures.append(f"trial {trial}: nu = 0 is not running extrema")
                break
            sandwich = (
                lib.global_min <= lib.damp_min <= y
                <= lib.damp_max <= lib.global_max
            )
            if not sandwich:
                failures.append(f"trial {trial}: sandwich violated")
                break
        if failures:
            break
    _finish(7, "damped-envelope recursion oracle", failures, t0, 2.0)


# --------------------------------------------------------------- criterion 8

def _oracle_reconcile(entries, t_end, eps):
    """Independent restatement of the five scheduling rules."""
    out = []
    for k, e in enumerate(entries):
        if e.finished:
            out.append(e.estimated)
            continue
        if e.imposed_step is not None:
            t = e.t_init + (e.grid_steps + 1) * e.imposed_step
        else:
            t = e.estimated
            live = [p for p in e.producers if not entries[p].finished]
            if e.has_outputs:
                for p in live:
                    t = min(t, entries[p].estimated)
            else:
                if live and not all(
                    not entries[p].producers
                    and not entries[p].orders_changed
                    for p in live
                ):
                    for p in live:
                        pe = entries[p]
                        if pe.imposed_step is not None:
                            t = min(t, pe.t_init
                                    + (pe.grid_steps + 1) * pe.imposed_step)
                        else:
                            cand = pe.estimated
                            plive = [
                                q for q in pe.producers
                                if not entries[q].finished
                            ]
                            if pe.has_outputs:
                                for q in plive:
                                    cand = min(cand, entries[q].estimated)
                            t = min(t, cand)
        t = min(t, t_end)
        if t < e.reached + eps:
            t = min(e.reached + eps, t_end)
        out.append(t)
    return out


def _random_entries(rng):
    n = rng.randrange(1, 6)
    # producers must bear outputs, so draw them only from out-bearing entries
    out_bearing = [rng.random() < 0.7 for _ in range(n)]
    if not any(out_bearing):
        out_bearing[rng.randrange(n)] = True
    entries = []
    for k in range(n):
        reached = rng.uniform(0.0, 5.0)
        sources = [l for l in range(n) if l != k and out_bearing[l]]
        rng.shuffle(sources)
        producers = tuple(sorted(sources[: rng.randrange(0, len(sources) + 1)]))
        entries.append(ScheduleEntry(
            reached=reached,
            estimated=reached + rng.uniform(0.0, 2.0),
            has_outputs=out_bearing[k],
            producers=producers,
            imposed_step=rng.uniform(0.1, 1.0) if rng.random() < 0.3 else None,
            orders_changed=rng.random() < 0.5,
            finished=rng.random() < 0.15,
        ))
        e = entries[-1]
        if e.imposed_step is not None:
            # on its grid from t_init = 0, no further draw: the runs below
            # see the same problems
            e.grid_steps = int(e.reached // e.imposed_step)
            e.reached = e.grid_steps * e.imposed_step
    t_end = max(e.estimated for e in entries) * rng.uniform(0.8, 1.1)
    return entries, t_end


def _random_problem(rng):
    n = rng.randrange(1, 6)
    n_out = [rng.randrange(0, 3) for _ in range(n)]
    if not any(n_out):
        n_out[rng.randrange(n)] = 1
    n_in = [0] * n
    links = {}
    for k in range(n):
        sources = [l for l in range(n) if l != k and n_out[l] > 0]
        if not sources:
            continue
        n_in[k] = rng.randrange(0, 3)
        for i in range(n_in[k]):
            l = rng.choice(sources)
            links[(k, i)] = (l, rng.randrange(0, n_out[l]))

    def make_spec(k, imposed_step):
        gains = [0.5 + 0.5 * j for j in range(n_out[k])]

        def f(t, x, u, _k=k):
            return [-x[0] + sum(u)]

        def g(t, x, u, _gains=gains):
            return [a * x[0] for a in _gains]

        return SubsystemSpec(
            label=f"s{k}", n_states=1, n_in=n_in[k], n_out=n_out[k],
            f=f, g=g, x_init=(rng.uniform(-1.0, 1.0),),
            imposed_step=imposed_step,
        )

    steps = [
        rng.uniform(0.2, 0.5) if rng.random() < 0.3 else None for _ in range(n)
    ]
    # drawn in this order: every x_init, then t_end, then every dt0
    specs = [make_spec(k, steps[k]) for k in range(n)]
    t_end = rng.uniform(1.0, 2.0)
    return CosimProblem(
        subsystems=tuple(replace(s, dt0=rng.uniform(0.2, 0.6)) for s in specs),
        graph=CouplingGraph(links),
        t_init=0.0,
        t_end=t_end,
    )


def test_criterion_8_scheduler_contract_on_random_graphs(monkeypatch):
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(4242)

    for trial in range(200):
        entries, t_end = _random_entries(rng)
        got = reconcile(entries, t_end, 1e-9)
        want = _oracle_reconcile(entries, t_end, 1e-9)
        if got != want:
            failures.append(f"reconcile trial {trial}: {got} != {want}")
            break

    monkeypatch.setattr(master, "MAX_EVENTS", 5000)
    opts = MasterOptions(tolerances=Tolerances(dt_min=0.05, dt_max=1.0))
    for trial in range(30):
        problem = _random_problem(rng)
        trace = run_f3ornits(problem, opts)
        for k, spec in enumerate(problem.subsystems):
            t_rows = trace.subsystems[spec.label].column("t")
            if abs(t_rows[-1] - problem.t_end) > 1e-6:
                failures.append(
                    f"run {trial}: {spec.label} stopped at {t_rows[-1]:.6g}, "
                    f"horizon {problem.t_end:.6g}"
                )
            step = problem.subsystems[k].imposed_step
            if step is not None:
                for t in t_rows[:-1]:
                    k_near = round((t - problem.t_init) / step)
                    if t != problem.t_init + k_near * step:
                        failures.append(
                            f"run {trial}: {spec.label} left its grid at "
                            f"t = {t:.9g}"
                        )
                        break
        if trial < 10:
            # the same problem with its subsystems reversed and its links
            # renumbered: due order, wiring and pruning all run backwards
            n = len(problem.subsystems)
            links = {
                (n - 1 - k, i): (n - 1 - l, j)
                for (k, i), (l, j) in problem.graph.links.items()
            }
            flipped = replace(
                problem, subsystems=problem.subsystems[::-1],
                graph=CouplingGraph(links),
            )
            again = run_f3ornits(flipped, opts)
            if _max_trace_diff(trace, again) != 0.0:
                failures.append(f"run {trial}: event order changed the result")
        if failures:
            break
    _finish(8, "scheduler contract on random graphs", failures, t0, 5.0)
