"""The trace CSV writer and the input coefficients a trace row records."""

import csv
import io
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from f3ornits.inputs import InputPlan
from f3ornits.master import _record
from f3ornits.poly import Polynomial
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
        st_.t.append(draw(_CELL))
        st_.outputs.append(tuple(draw(_CELL) for _ in range(n_out)))
        st_.errors.append(tuple(draw(_CELL) for _ in range(n_out)))
        st_.orders.append(tuple(draw(st.integers(0, 2)) for _ in range(n_out)))
        st_.rho.append(draw(_CELL))
        st_.input_coeffs.append(tuple(
            (*(draw(_CELL) for _ in range(4)), draw(st.integers(0, 1)))
            for _ in range(n_in)
        ))
    return st_


def _csv_writer_bytes(st_: SubsystemTrace) -> bytes:
    """The rows as csv.writer writes them from format_float / str cells."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(st_.header())
    for r in range(st_.n_rows):
        row = [format_float(st_.t[r])]
        row += [format_float(v) for v in st_.outputs[r]]
        row += [format_float(v) for v in st_.errors[r]]
        row += [str(v) for v in st_.orders[r]]
        row.append(format_float(st_.rho[r]))
        for cs in st_.input_coeffs[r]:
            row += [format_float(c) for c in cs[:4]]
            row.append(str(cs[4]))
        w.writerow(row)
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
    _record(st_, 0.0, (), (), (), 1.0, [plan, None])
    local = poly.shifted(plan.window_start).coeffs
    expected = [c.hex() for c in local] + [(0.0).hex()] * (4 - len(local))
    packed, absent = st_.input_coeffs[0]
    assert [c.hex() for c in packed[:4]] == expected
    assert packed[4] == int(smoothed)
    assert absent == (0.0, 0.0, 0.0, 0.0, 0)
