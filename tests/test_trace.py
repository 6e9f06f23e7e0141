"""The trace CSV writer, the input coefficients a trace row records and the
memory a row keeps."""

import csv
import io
import math
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from f3ornits.config import RunConfig, materialize
from f3ornits.inputs import InputPlan
from f3ornits.master import run_f3ornits
from f3ornits.poly import Polynomial, shift_coeffs
from f3ornits.trace import RunTrace, SubsystemTrace, format_float

_EDGE_FLOATS = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308,
)
_CELL = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())


@st.composite
def _traces(draw):
    n_out, n_in = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    st_ = SubsystemTrace("sub", n_out, n_in)
    for _ in range(draw(st.integers(1, 4))):
        row = [draw(_CELL)]
        row += [draw(_CELL) for _ in range(2 * n_out)]
        row += [draw(st.integers(0, 2)) for _ in range(n_out)]
        row.append(draw(_CELL))
        for _ in range(n_in):
            row += [draw(_CELL) for _ in range(4)]
            row.append(draw(st.integers(0, 1)))
        st_.rows.append(tuple(row))
    return st_


def _is_int_column(name: str) -> bool:
    return name.startswith("order") or name.endswith("_smoothed")


def _csv_writer_bytes(st_: SubsystemTrace) -> bytes:
    """The rows as csv.writer writes them, each cell formatted by the kind
    its header name gives: str for orders and smoothing flags, format_float
    for the rest."""
    header = st_.header()
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in st_.rows:
        w.writerow([
            str(v) if _is_int_column(name) else format_float(v)
            for name, v in zip(header, row, strict=True)
        ])
    return buf.getvalue().encode()


@settings(max_examples=300, deadline=None)
@given(_traces())
def test_row_format_writes_the_csv_writer_bytes(st_):
    with tempfile.TemporaryDirectory() as tmp:
        paths = RunTrace({"sub": st_}).write_csv(tmp, "x")
        assert Path(paths[0]).read_bytes() == _csv_writer_bytes(st_)


def test_format_float_is_the_format_spec_float_format():
    for x in _EDGE_FLOATS + (0.1, 1 / 3, -math.pi, 6.02e23, 5.0, 10**20):
        assert format_float(x) == "{:.17g}".format(x)


@settings(max_examples=300, deadline=None)
@given(
    coeffs=st.lists(
        st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6)),
        min_size=1, max_size=4,
    ),
    t_ref=st.floats(-1e6, 1e6),
    shift=st.one_of(st.just(0.0), st.floats(-100.0, 100.0)),
    smoothed=st.booleans(),
)
def test_record_packs_the_shifted_coefficients(coeffs, t_ref, shift, smoothed):
    poly = Polynomial(t_ref, tuple(coeffs))
    plan = InputPlan(poly, t_ref + shift, smoothed)
    st_ = SubsystemTrace("sub", 0, 2)
    st_.record(0.0, (), (), (), 1.0, [plan, None])
    local = shift_coeffs(poly.coeffs, plan.window_start - t_ref)
    expected = [c.hex() for c in local] + [(0.0).hex()] * (4 - len(local))
    assert [st_.column(f"u0_c{c}")[0].hex() for c in range(4)] == expected
    assert st_.column("u0_smoothed") == [int(smoothed)]
    assert st_.rows[0][-5:] == (0.0, 0.0, 0.0, 0.0, 0)
    assert len(st_.rows[0]) == len(st_.header())


def test_a_trace_row_keeps_little_memory():
    # a row is one tuple of its cells; six per-column lists with a tuple per
    # output group and per input kept about 244 bytes a row on this run
    setup = materialize(RunConfig(model="car", seed=7))
    run_f3ornits(setup.model.problem, setup.options)  # warm the kernels
    tracemalloc.start()
    try:
        trace = run_f3ornits(setup.model.problem, setup.options)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = sum(st_.n_rows for st_ in trace.subsystems.values())
    assert kept / rows < 175
