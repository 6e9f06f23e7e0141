"""Subsystem wrapper: declared capabilities and macro-step integration.

Each subsystem owns an ODE  x' = f(t, x, u(t)),  y = g(t, x, u(t))  and is
advanced one macro step at a time with a fixed-step classical Runge-Kutta 4
micro-integration.  The micro step is the window (t_target - t_start) over
MICRO_DIVISOR, capped by the subsystem's own `max_micro_step` when it
declares one: each model states the bound its own fastest mode needs, so a
slow subsystem does not pay for a stiff neighbour.  Inputs arrive as genuine
polynomials in time and are evaluated continuously at every micro stage,
never sampled-and-held, so the micro error stays far below the coupling
error.  `step_to` walks the window with one micro-walk kernel generated and
compiled per state dimension and tuple of input degrees (`_rk4_walk`): it
advances the micro grid, evaluates every input once per stage time by inline
Horner, and keeps the state, the grid and the coefficients in local
variables, so its memory does not grow with the number of micro steps.
f is either a plain callable, which can be any black box and receives each
stage's state as a fresh list and its inputs as a read-only tuple, or a
`Derivatives`: one expression per state, which the kernel generated for it
evaluates inline, with no call and no list per stage, to the same bits.
That kernel evaluates a subexpression that reads no state once per stage
time rather than once per stage, one that reads only constants once per
window, and one that a stage repeats once per stage (`_Plan`).
There is no rollback: a completed macro step is final.  `step_to` returns
the new state and the output tuple y at the target time.
"""

from __future__ import annotations

import ast
import copy
from dataclasses import dataclass
from functools import cache, cached_property
from math import isfinite
from typing import Callable, Sequence

from .errors import ConfigError, ContractViolation, DivergenceError
from .poly import MAX_DEGREE, Polynomial

#: highest polynomial order the method itself proposes (inputs and outputs)
MAX_ORDER = 2

#: micro-step rule: min(macro_step / MICRO_DIVISOR, spec.max_micro_step)
MICRO_DIVISOR = 50.0


@dataclass(frozen=True)
class Capabilities:
    """What a simulator can accept from the master.

    max_input_degree is the highest polynomial degree the subsystem can
    integrate on its inputs; smoothing needs the cubics of MAX_DEGREE.  A
    subsystem that cannot vary its communication step declares the step it
    imposes instead; imposed_step None means the step is free.
    """

    max_input_degree: int = MAX_DEGREE
    imposed_step: float | None = None

    def __post_init__(self):
        if self.max_input_degree < 0:
            raise ConfigError("max_input_degree must be >= 0")
        if self.imposed_step is not None and not (
            isfinite(self.imposed_step) and self.imposed_step > 0
        ):
            raise ConfigError(
                f"imposed_step must be finite and positive, got {self.imposed_step!r}"
            )

    @property
    def smoothing_capable(self) -> bool:
        return self.max_input_degree >= MAX_DEGREE


def effective_max_degree(caps: Capabilities) -> int:
    """Order ceiling for un-smoothed input plans: min(method cap, capability)."""
    return min(MAX_ORDER, caps.max_input_degree)


def _bound(name: str) -> bool:
    """Whether a stage binds the name: its time t, a state x{i} or an
    input u{j}."""
    return name == "t" or (name[:1] in ("x", "u") and name[1:].isdecimal())


#: what a subexpression reads, and so how often its value can change: only
#: constants (once per window), also t or an input (once per stage time),
#: also a state (at every stage)
_WINDOW, _TIME, _STATE = range(3)

#: nodes never named on their own: a name or a literal already, or a part
#: that cannot stand alone as an expression
_ATOMS = (ast.Name, ast.Constant, ast.Starred, ast.Slice, ast.FormattedValue)

#: nodes `Derivatives.check` rejects: scopes whose own names a stage could
#: not rename, and suspensions, which would make the walk a generator
_SCOPES = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SUSPENSIONS = (ast.Yield, ast.YieldFrom, ast.Await)

#: nodes that hold no expression: contexts and operators
_LEAVES = (ast.expr_context, ast.operator, ast.unaryop, ast.cmpop, ast.boolop)


def _conditional(node: ast.AST) -> list[ast.AST]:
    """The children that evaluating node may skip: the branches of a
    conditional, and the operands after the first of `and`/`or` or of a
    chained comparison."""
    if isinstance(node, ast.IfExp):
        return [node.body, node.orelse]
    if isinstance(node, ast.BoolOp):
        return node.values[1:]
    if isinstance(node, ast.Compare):
        return node.comparators[1:]
    return []


class _Plan:
    """A declaration's expressions with their repeated and state-free work
    named, built once per expression text (`_plan`).

    A subexpression is named when evaluating its expression always
    evaluates it (it sits in no branch, `_conditional`), it reads some
    name, and either it reads less of t, the inputs and the states than the
    subexpression it sits in (so its value changes less often), or one
    stage would evaluate it more than once.  Each named value is evaluated
    once per window (`_w{k}`, reading only constants), once per stage time
    (`_g{k}`, reading t or an input but no state) or once per stage
    (`_q{k}`), by the same operations on the same operands as in place, so
    with the same bits; helpers must therefore be pure.

    Each text is kept as a template, its names between NUL characters
    (which `ast.unparse` writes for no other reason), so that a stage
    renames them without parsing again.  `defs[level]` holds each named
    value of the level with its template, every one after the named values
    it reads; `roots` holds each derivative's, and `bare[i]` the name
    derivative i is, if it is no more than a name.
    """

    def __init__(self, exprs: Sequence[str]):
        trees = [ast.parse(e, mode="eval").body for e in exprs]
        # id(node) -> (structural key, level or -1 if it reads no name,
        # size, the children that evaluating node always evaluates)
        facts: dict[int, tuple[tuple, int, int, list[ast.AST]]] = {}
        reads: set[str] = set()

        def scan(node: ast.AST) -> tuple[tuple, int, int, list[ast.AST]]:
            level, size = -1, 1
            if isinstance(node, ast.Name):
                name = node.id
                reads.add(name)
                level = (
                    _WINDOW if not _bound(name)
                    else _STATE if name[0] == "x" else _TIME
                )
            key: list[object] = [type(node)]
            children = []
            for _, value in ast.iter_fields(node):
                parts = []
                for item in value if isinstance(value, list) else (value,):
                    if isinstance(item, _LEAVES):
                        parts.append(type(item))
                    elif isinstance(item, ast.AST):
                        item_key, item_level, item_size, _ = scan(item)
                        parts.append(item_key)
                        children.append(item)
                        level, size = max(level, item_level), size + item_size
                    else:
                        # repr tells 1 from 1.0 and True, which compare equal
                        parts.append((type(item), repr(item)))
                key.append(tuple(parts))
            skip = _conditional(node)
            evaluated = [c for c in children if not any(c is b for b in skip)]
            facts[id(node)] = fact = (tuple(key), level, size, evaluated)
            return fact

        for tree in trees:
            scan(tree)

        def nameable(node: ast.AST) -> bool:
            return (
                isinstance(node, ast.expr) and not isinstance(node, _ATOMS)
                and facts[id(node)][1] >= 0
            )

        named: dict[tuple, ast.AST] = {}

        def hoist(node: ast.AST, within: int) -> None:
            key, level, _, evaluated = facts[id(node)]
            if level < within and nameable(node):
                named.setdefault(key, node)
                within = level
            for child in evaluated:
                hoist(child, within)

        for tree in trees:
            hoist(tree, _STATE)
        # then the largest subexpression that one stage still evaluates
        # twice, until none is left
        while True:
            counts: dict[tuple, int] = {}
            first: dict[tuple, ast.AST] = {}
            seen: set[tuple] = set()

            def count(node: ast.AST) -> None:
                key, _, _, evaluated = facts[id(node)]
                if key in named:
                    if key in seen:
                        return
                    seen.add(key)
                elif nameable(node):
                    counts[key] = counts.get(key, 0) + 1
                    first.setdefault(key, node)
                for child in evaluated:
                    count(child)

            for tree in trees:
                count(tree)
            repeated = [key for key, c in counts.items() if c > 1]
            if not repeated:
                break
            key = max(repeated, key=lambda k: facts[id(first[k])][2])
            named[key] = first[key]

        names: dict[tuple, str] = {}
        defs: tuple[list, ...] = ([], [], [])
        for key, node in sorted(named.items(), key=lambda kv: facts[id(kv[1])][1:3]):
            level = facts[id(node)][1]
            names[key] = f"{('_w', '_g', '_q')[level]}{len(defs[level])}"
            defs[level].append((names[key], node))

        def marked(node: ast.AST, whole: bool = False) -> ast.AST:
            """node with each named subexpression, and node itself unless
            whole, replaced by its name, and every name between NULs."""
            if isinstance(node, _LEAVES):
                return node
            name = None if whole else names.get(facts[id(node)][0])
            if name is not None or isinstance(node, ast.Name):
                return ast.Name(f"\0{name or node.id}\0", ast.Load())
            new = copy.copy(node)
            for field, value in ast.iter_fields(node):
                if isinstance(value, ast.AST):
                    setattr(new, field, marked(value))
                elif isinstance(value, list):
                    setattr(new, field, [
                        marked(v) if isinstance(v, ast.AST) else v for v in value
                    ])
            return new

        def template(node: ast.AST, whole: bool = False) -> tuple[str, ...]:
            return tuple(ast.unparse(marked(node, whole)).split("\0"))

        self.defs = tuple(
            [(name, template(node, whole=True)) for name, node in level_defs]
            for level_defs in defs
        )
        self.roots = [template(tree) for tree in trees]
        self.bare = [
            parts[1] if len(parts) == 3 and parts[0] == parts[2] == "" else None
            for parts in self.roots
        ]
        #: the constants, and the indices of the states and inputs, read
        self.constants = sorted(name for name in reads if not _bound(name))
        self.states = sorted(int(n[1:]) for n in reads if n[0] == "x" and _bound(n))
        self.inputs = sorted(int(n[1:]) for n in reads if n[0] == "u" and _bound(n))

    @staticmethod
    def fill(parts: tuple[str, ...], rename: dict[str, str]) -> str:
        """A template's text, each name passed through rename."""
        return "".join(
            rename.get(part, part) if i % 2 else part for i, part in enumerate(parts)
        )

    def lines(self, level: int, rename: dict[str, str]) -> list[str]:
        """One assignment per named value of the level, in order."""
        return [
            f"{rename.get(name, name)} = {self.fill(parts, rename)}"
            for name, parts in self.defs[level]
        ]


@cache
def _plan(exprs: tuple[str, ...]) -> _Plan:
    return _Plan(exprs)


@dataclass(frozen=True)
class Derivatives:
    """x' = f(t, x, u) declared as one Python expression per state.

    exprs[i] is state i's derivative, written in the time t, the states
    x0.., the inputs u0.. and the names of `constants`: (name, value) pairs,
    numbers or helper callables, kept as a tuple so the declaration stays
    hashable.  Helpers must be pure functions of their arguments: a
    subexpression that reads no state is evaluated once per stage time or
    once per window, not at every stage, and one that a stage reads twice
    is evaluated once (`_Plan`, built once per expression text).  Called as
    f(t, x, u), it runs `function`, compiled from that plan on first use,
    which evaluates each named value once per call; `step_to` instead
    evaluates the plan inline in its micro walk (`_rk4_walk`).  Both use
    the same operations on the same operands as the text, and so give its
    bits.  `SubsystemSpec` checks a declaration against its arities.
    """

    exprs: tuple[str, ...]
    constants: tuple[tuple[str, object], ...] = ()

    @cached_property
    def namespace(self) -> dict[str, object]:
        return dict(self.constants)

    @cached_property
    def function(self) -> Callable[..., list[float]]:
        """f(t, x, u) as one compiled function: a call costs one frame."""
        plan = _plan(self.exprs)
        source = (
            "def _derivatives(t, _x, _u):\n"
            f"    [{', '.join(f'x{i}' for i in range(len(self.exprs)))}] = _x\n"
            + "".join(f"    u{j} = _u[{j}]\n" for j in plan.inputs)
            + "".join(
                f"    {line}\n"
                for level in (_WINDOW, _TIME, _STATE)
                for line in plan.lines(level, {})
            )
            + "    return ["
            + ", ".join(plan.fill(parts, {}) for parts in plan.roots)
            + "]\n"
        )
        namespace = dict(self.namespace)
        exec(compile(source, "<derivatives>", "exec"), namespace)
        return namespace["_derivatives"]

    def __call__(
        self, t: float, x: Sequence[float], u: Sequence[float]
    ) -> list[float]:
        return self.function(t, x, u)

    def check(self, label: str, n_states: int, n_in: int) -> None:
        """Raise ConfigError unless every expression is one expression that
        reads only t, x0..x{n_states-1}, u0..u{n_in-1} and the constants."""
        if len(self.exprs) != n_states:
            raise ConfigError(
                f"{label}: {len(self.exprs)} derivative expressions for "
                f"{n_states} states"
            )
        for name, _ in self.constants:
            if _bound(name) or name.startswith("_"):
                raise ConfigError(
                    f"{label}: constant {name!r} would shadow a name of the "
                    "micro walk (t, x0.., u0.. or a leading underscore)"
                )
        known = {"t", *self.namespace}
        known.update(f"x{i}" for i in range(n_states))
        known.update(f"u{j}" for j in range(n_in))
        for i, expr in enumerate(self.exprs):
            try:
                tree = ast.parse(expr, mode="eval")
            except (SyntaxError, ValueError):
                raise ConfigError(
                    f"{label}: derivative {i} is not an expression: {expr!r}"
                ) from None
            for node in ast.walk(tree):
                if isinstance(node, _SCOPES):
                    raise ConfigError(
                        f"{label}: derivative {i} opens a scope of its own "
                        "(a lambda or a comprehension)"
                    )
                if isinstance(node, _SUSPENSIONS):
                    raise ConfigError(
                        f"{label}: derivative {i} suspends (yield or await)"
                    )
                if not isinstance(node, ast.Name):
                    continue
                name = node.id
                if not isinstance(node.ctx, ast.Load):
                    raise ConfigError(f"{label}: derivative {i} assigns {name!r}")
                if name in known:
                    continue
                if _bound(name):
                    raise ConfigError(
                        f"{label}: derivative {i} reads {name}, out of range "
                        f"for {n_states} states and {n_in} inputs"
                    )
                raise ConfigError(
                    f"{label}: derivative {i} reads unknown name {name!r}"
                )


@dataclass(frozen=True)
class SubsystemSpec:
    """Dynamics f, output map g, initial state, and coupling arities.

    max_micro_step bounds the RK4 micro step for this subsystem's own
    dynamics; None means the divisor rule alone sets it.
    """

    label: str
    n_states: int
    n_in: int
    n_out: int
    f: Derivatives | Callable[[float, list[float], Sequence[float]], list[float]]
    g: Callable[[float, list[float], list[float]], list[float]]
    x_init: tuple[float, ...]
    max_micro_step: float | None = None

    def __post_init__(self):
        if min(self.n_in, self.n_out) < 0:
            raise ConfigError(f"{self.label}: arities must be >= 0")
        if len(self.x_init) != self.n_states:
            raise ConfigError(
                f"{self.label}: x_init has {len(self.x_init)} entries, "
                f"expected {self.n_states}"
            )
        bound = self.max_micro_step
        if bound is not None and not (isfinite(bound) and bound > 0):
            raise ConfigError(
                f"{self.label}: max_micro_step must be finite and positive, "
                f"got {bound!r}"
            )
        if isinstance(self.f, Derivatives):
            self.f.check(self.label, self.n_states, self.n_in)


def _arity_error(label: str, k: Sequence[float], n: int) -> ContractViolation:
    return ContractViolation(
        f"{label}: f returned {len(k)} derivatives, expected {n}"
    )


def _stalled(label: str, hs: float, t: float) -> ValueError:
    return ValueError(f"{label}: micro step {hs!r} does not advance t = {t!r}")


#: each RK4 stage's time, and the tag of the names evaluated at that time
_STAGE_TIMES = {1: ("_t", "i"), 2: ("_tm", "m"), 3: ("_tm", "m"), 4: ("_t1", "e")}


@cache
def _rk4_walk(
    n: int, degrees: tuple[int, ...], exprs: tuple[str, ...] | None = None
) -> Callable[..., list[float]]:
    """The micro walk for n states and inputs of the given degrees, compiled
    once per (n, degrees, exprs).

    The source is generated, the way `dataclasses` builds `__init__`.  The
    walk advances the grid itself: each step is hs = min(t_target - t, h),
    ending at t1 = t + hs with its midpoint tm = t + half, half = 0.5 * hs,
    and the walk stops once t_target - t1 <= h * 1e-9.  A step with
    t1 == t cannot advance (h at most half an ulp of t) and raises
    ValueError.  Input j's coefficients live in the locals _c{j}_0.., and
    it is evaluated at t, tm and t1 by one Horner expression,
    (0.0 * tau + c{j}_d) * tau + c{j}_{d-1} ..., the operations of
    `Polynomial.__call__` in its order; the inputs at t1 are the next
    step's inputs at t.  The state lives in the locals _x0.._x{n-1} and
    each stage's derivatives in _k1_0.., _k2_0.., ....  Every expression,
    and the order it is evaluated in, is the textbook walk's: the stage
    state x[i] + half * k1[i], then + half * k2[i], then + hs * k3[i], and
    the step x[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]).

    With exprs None, each stage calls f with its state as a list display
    and its inputs as a tuple, so a micro step builds no list but f's
    arguments, and a stage whose f returns the wrong number of derivatives
    raises ContractViolation.  With the expressions of a `Derivatives`, the
    walk evaluates their `_Plan` in place of the calls.  It loads the
    constants they read into locals on entry and evaluates the window's
    named values once.  It evaluates the stage-time values at the window
    start, then at tm for stages 2 and 3 and at t1 for stage 4, and carries
    those to the next step's stage 1: twice per micro step plus once per
    window, where the textbook walk evaluates them four times per micro
    step.  Each stage renames t, x{i} and u{j} in the text to its own time,
    state (_x{i}, then _s2_{i}, _s3_{i}, _s4_{i}) and inputs, and evaluates
    its own named values once.  A derivative that is a bare name (a state,
    a named value, t, an input or a constant) is read by that name and not
    copied, except a state x{j} as stage 1's derivative i > j, which the
    step would overwrite before reading.  Every other local starts with an
    underscore, which no constant may.
    """

    def each(fmt: str, count: int = n) -> str:
        return ", ".join(fmt.format(i) for i in range(count))

    m = len(degrees)
    plan = None if exprs is None else _plan(exprs)
    used = range(m) if plan is None else plan.inputs
    # each stage's derivatives, by the names that hold them
    k: dict[int, list[str]] = {}

    def at(s: int, indent: str) -> str:
        """The inputs at stage s's time, and the declaration's values named
        per stage time."""
        t, tag = _STAGE_TIMES[s]
        lines = []
        for j in used:
            d = degrees[j]
            tau = f"{t} - _r{j}"
            if d:
                lines.append(f"_tau = {tau}")
                tau = "_tau"
            else:
                tau = f"({tau})"
            value = f"0.0 * {tau} + _c{j}_{d}"
            for i in range(d - 1, -1, -1):
                value = f"({value}) * _tau + _c{j}_{i}"
            lines.append(f"_u{tag}{j} = {value}")
        if plan is None:
            lines.append(f"_u{tag} = (" + "".join(f"_u{tag}{j}, " for j in used) + ")")
        else:
            lines += plan.lines(_TIME, renames(s))
        return "".join(f"{indent}{line}\n" for line in lines)

    def renames(s: int) -> dict[str, str]:
        """The names the declaration reads, as stage s names them."""
        t, tag = _STAGE_TIMES[s]
        rename = {"t": t}
        rename.update(
            (f"x{i}", f"_x{i}" if s == 1 else f"_s{s}_{i}") for i in range(n)
        )
        rename.update((f"u{j}", f"_u{tag}{j}") for j in used)
        rename.update((name, f"_g{tag}{name[2:]}") for name, _ in plan.defs[_TIME])
        rename.update((name, f"_q{s}_{name[2:]}") for name, _ in plan.defs[_STATE])
        return rename

    def stage(s: int) -> str:
        """Stage s's state and derivatives; k[s] names the derivatives."""
        t, tag = _STAGE_TIMES[s]
        step = "_hs" if s == 4 else "_half"
        k[s] = [f"_k{s}_{i}" for i in range(n)]
        if plan is None:
            states = each("_x{0}") if s == 1 else ", ".join(
                f"_x{i} + {step} * {k[s - 1][i]}" for i in range(n)
            )
            lines = [
                f"_k = _f({t}, [{states}], _u{tag})",
                "try:",
                f"    [{', '.join(k[s])}] = _k",
                "except ValueError:",
                f"    raise _arity_error(_label, _k, {n}) from None",
            ]
        else:
            rename = renames(s)
            lines = [
                f"_s{s}_{i} = _x{i} + {step} * {k[s - 1][i]}"
                for i in plan.states if s > 1
            ]
            lines += plan.lines(_STATE, rename)
            for i, parts in enumerate(plan.roots):
                bare = plan.bare[i]
                if bare is not None and not (
                    s == 1 and bare in {f"x{j}" for j in range(i)}
                ):
                    k[s][i] = rename.get(bare, bare)
                else:
                    lines.append(f"{k[s][i]} = {plan.fill(parts, rename)}")
        return "".join(f"        {line}\n" for line in lines)

    prologue = ""
    if plan is not None:
        prologue = "".join(
            f"    {line}\n"
            for line in (
                (["_env = _f.namespace"] if plan.constants else [])
                + [f"{name} = _env[{name!r}]" for name in plan.constants]
                + plan.lines(_WINDOW, {})
            )
        )
    carried = ["_ui = _ue"] if plan is None else (
        [f"_ui{j} = _ue{j}" for j in used]
        + [f"_gi{name[2:]} = _ge{name[2:]}" for name, _ in plan.defs[_TIME]]
    )
    source = (
        "def walk(_f, _x, _t, _t_target, _h, _inputs, _label):\n"
        f"    [{each('_x{0}')}] = _x\n"
        f"    [{each('_p{0}', m)}] = _inputs\n"
        + "".join(
            f"    _r{j} = _p{j}.t_ref\n"
            f"    [{', '.join(f'_c{j}_{i}' for i in range(degrees[j] + 1))}]"
            f" = _p{j}.coeffs\n"
            for j in used
        )
        + prologue
        + "    _guard = _h * 1e-9\n"
        + at(1, "    ")
        + "    while True:\n"
        "        _hs = _t_target - _t\n"
        "        if _hs > _h:\n"
        "            _hs = _h\n"
        "        _t1 = _t + _hs\n"
        "        if _t1 == _t:\n"
        "            raise _stalled(_label, _hs, _t)\n"
        "        _half = 0.5 * _hs\n"
        "        _tm = _t + _half\n"
        + stage(1)
        + at(2, "        ")
        + stage(2)
        + stage(3)
        + at(4, "        ")
        + stage(4)
        + "        _sixth = _hs / 6.0\n"
        + "".join(
            f"        _x{i} = _x{i} + _sixth * "
            f"({k[1][i]} + 2.0 * ({k[2][i]} + {k[3][i]}) + {k[4][i]})\n"
            for i in range(n)
        )
        + "        if _t_target - _t1 <= _guard:\n"
        "            break\n"
        "        _t = _t1\n"
        + "".join(f"        {line}\n" for line in carried)
        + f"    return [{each('_x{0}')}]\n"
    )
    namespace = {"_arity_error": _arity_error, "_stalled": _stalled}
    name = f"<rk4 walk n={n} degrees={degrees}{'' if exprs is None else ' inline'}>"
    exec(compile(source, name, "exec"), namespace)
    return namespace["walk"]


def step_to(
    spec: SubsystemSpec,
    caps: Capabilities,
    state: Sequence[float],
    inputs: Sequence[Polynomial],
    t_start: float,
    t_target: float,
    micro_step: float | None = None,
) -> tuple[list[float], tuple[float, ...]]:
    """Advance one subsystem from t_start to t_target, no rollback.

    Returns the new state and the outputs evaluated exactly at t_target.
    The micro step is min((t_target - t_start) / MICRO_DIVISOR,
    spec.max_micro_step); an explicit `micro_step` overrides that rule.

    The window is walked by the kernel `_rk4_walk` compiled for
    spec.n_states and the input degrees: steps of h from t_start, the last
    one shortened to land on t_target, each input polynomial evaluated once
    per stage time (step boundaries and midpoints) as the walk goes.  A
    callable f is called exactly four times per micro step, with the
    stage's state as a list and its inputs as a tuple, and every call's
    derivative count is checked; a `Derivatives` f is evaluated inline,
    its count checked when the spec was built: each expression four times
    per micro step, but each subexpression that reads no state twice per
    micro step plus once per window (`_rk4_walk`).
    The walk keeps no list that grows with the number of micro steps.
    """
    if t_target <= t_start:
        raise ValueError(
            f"{spec.label}: macro step must advance time "
            f"({t_start!r} -> {t_target!r})"
        )
    if len(inputs) != spec.n_in:
        raise ContractViolation(
            f"{spec.label}: got {len(inputs)} input polynomials, "
            f"expected {spec.n_in}"
        )
    if len(state) != spec.n_states:
        raise ContractViolation(
            f"{spec.label}: got {len(state)} states, expected {spec.n_states}"
        )
    degrees = tuple([len(p.coeffs) - 1 for p in inputs])
    for i, d in enumerate(degrees):
        if d > caps.max_input_degree:
            raise ContractViolation(
                f"{spec.label}: input {i} has degree {d}, "
                f"capability allows {caps.max_input_degree}"
            )

    h = micro_step
    if h is None:
        h = (t_target - t_start) / MICRO_DIVISOR
        if spec.max_micro_step is not None:
            h = min(h, spec.max_micro_step)
    if not (isfinite(h) and h > 0):
        raise ValueError(
            f"{spec.label}: micro step must be finite and positive, got {h!r}"
        )

    f = spec.f
    walk = _rk4_walk(
        spec.n_states, degrees, f.exprs if isinstance(f, Derivatives) else None
    )
    x = walk(f, state, t_start, t_target, h, inputs, spec.label)
    if not all(map(isfinite, x)):
        raise DivergenceError(spec.label, t_start)

    y = evaluate_outputs(spec, x, [p(t_target) for p in inputs], t_target)
    if not all(map(isfinite, y)):
        raise DivergenceError(spec.label, t_start)
    return x, y


def evaluate_outputs(
    spec: SubsystemSpec,
    state: Sequence[float],
    inputs_at_t: Sequence[float],
    t: float,
) -> tuple[float, ...]:
    """Output map at a given time; the one place g's arity is checked."""
    y = spec.g(t, list(state), list(inputs_at_t))
    if len(y) != spec.n_out:
        raise ContractViolation(
            f"{spec.label}: g returned {len(y)} outputs, expected {spec.n_out}"
        )
    return tuple(y)
