import io
import math
import pickle
import struct
from collections.abc import Sequence
from types import SimpleNamespace

import numpy as np
import pytest

from chemotaxsim import diagnostics as diag
from chemotaxsim.checks import reverse_holder_violations
from chemotaxsim.elliptic import solve_chemical
from chemotaxsim.errors import CorruptFieldError, ParameterError
from chemotaxsim.mesh import Grid, ScalarField, cell_gradient_sq, integrate
from chemotaxsim.regimes import beta_window
from conftest import row_text


def test_lp_norm_constant_any_p():
    g = Grid.line(1.0, 64)
    f = ScalarField.full(g, 2.0)
    for p in (1.0, 1.5, 2.0, 3.7):
        assert diag.lp_norm(f, p) == pytest.approx(2.0, rel=1e-12)


def test_lp_norm_p1_equals_integral():
    gen = np.random.Generator(np.random.Philox(key=61))
    for g in (Grid.line(1.0, 40), Grid.box(1.0, 2.0, 12, 7)):
        for _ in range(20):
            f = ScalarField(g, gen.uniform(0.0, 2.0, g.shape))
            assert diag.lp_norm(f, 1.0) == integrate(f)


def test_lp_norm_indicator_bump():
    g = Grid.line(1.0, 64)
    vals = np.zeros(g.shape)
    vals[:32] = 1.0
    assert diag.lp_norm(ScalarField(g, vals), 2.0) == pytest.approx(math.sqrt(0.5))


def test_lp_norm_validation():
    g = Grid.line(1.0, 8)
    # a NaN p would give NaN and an infinite one 1.0 for this field
    for p in (0.5, math.nan, math.inf):
        with pytest.raises(ParameterError):
            diag.lp_norm(ScalarField.full(g, 3.0), p)
    with pytest.raises(ParameterError):
        diag.lp_norm(ScalarField.full(g, -1.0), 2.0)


def test_rayleigh_exponential():
    g = Grid.line(1.0, 256)
    v = ScalarField.from_function(g, lambda x: np.exp(x))
    val = diag.rayleigh(v)
    # grad v / v is exactly 1 in the continuum; O(h^2) discretization error
    # and interval-end effects
    assert val == pytest.approx(1.0, rel=0.02)
    const = ScalarField.full(g, 3.0)
    assert diag.rayleigh(const) == 0.0


@pytest.mark.filterwarnings("error")
def test_rayleigh_is_invariant_under_power_of_two_scaling_bit_for_bit():
    # v is scaled to a maximum in [0.5, 1) before anything is squared, so
    # v -> k*v keeps every bit, also where v**2 would overflow or underflow
    g = Grid.box(1.0, 1.0, 12, 8)
    v = ScalarField.from_function(g, lambda x, y: np.exp(x) + 0.5 * np.cos(3.0 * y))
    want = diag.rayleigh(v)
    assert want > 0.0
    for k in (0.5, 1024.0, 2.0 ** 900, 2.0 ** 1000, 2.0 ** -900):
        assert diag.rayleigh(ScalarField(g, v.values * k)) == want, k


def test_rayleigh_rejects_a_field_with_a_zero_cell():
    grid = Grid.line(1.0, 8)
    with pytest.raises(ParameterError, match="rayleigh needs a positive field"):
        diag.rayleigh(ScalarField(grid, np.linspace(0.0, 1.0, 8)))


def test_rayleigh_bound_for_solver_states():
    gen = np.random.Generator(np.random.Philox(key=71))
    g = Grid.line(1.0, 256)
    mu, nu = 1.0, 1.0
    for _ in range(10):
        u = ScalarField(g, gen.uniform(0.0, 2.0, g.shape))
        v = solve_chemical(u, mu, nu)
        rayleigh = diag.rayleigh(v)
        hand = (cell_gradient_sq(v).values / v.values ** 2).sum() * g.cell_volume
        assert rayleigh == float(hand)
        assert rayleigh <= mu * g.measure * 1.05


def test_rayleigh_face_identity_and_cell_convergence():
    """The face-weighted Rayleigh sum satisfies the exact discrete identity
    sum = mu*|Omega| - nu*int(u/v); the cell-centered monitor converges to
    it at second order on smooth data, staying under the 5% ceiling even
    when the bound is stressed (large mu, localized source)."""
    mu, nu = 400.0, 1.0
    diffs = {}
    for n in (128, 256):
        g = Grid.line(1.0, n)
        x = g.centers(0)
        u = ScalarField(g, np.exp(-((x - 0.4) ** 2) / (2 * 0.05 ** 2)))
        v = solve_chemical(u, mu, nu)
        from chemotaxsim.mesh import face_gradient
        (gx,) = face_gradient(v)
        vv = v.values
        face = float((gx ** 2 / (vv[:-1] * vv[1:])).sum() * g.cell_volume)
        identity = mu * g.measure - nu * float((u.values / vv).sum() * g.cell_volume)
        assert face == pytest.approx(identity, rel=1e-8)
        cell = diag.rayleigh(v)
        assert cell <= mu * g.measure * 1.05
        diffs[n] = abs(cell - face)
    assert 3.4 <= diffs[128] / diffs[256] <= 4.6


def test_log_mass_and_neg_power_basics():
    g = Grid.line(1.0, 32)
    one = ScalarField.full(g, 1.0)
    assert diag.log_mass(one) == pytest.approx(0.0, abs=1e-14)
    assert diag.neg_power(one, 2.5) == pytest.approx(g.measure)
    e_field = ScalarField.full(g, math.e)
    assert diag.log_mass(e_field) == pytest.approx(1.0, rel=1e-12)
    two = ScalarField.full(g, 2.0)
    assert diag.neg_power(two, 1.0) == pytest.approx(0.5)


def test_log_mass_and_neg_power_degeneracy_flags():
    g = Grid.line(1.0, 8)
    vals = np.ones(8)
    vals[0] = 0.0
    f = ScalarField(g, vals)
    assert diag.log_mass(f) == -math.inf
    assert diag.neg_power(f, 2.0) == math.inf
    # the exponent is checked before the flag
    for p in (0.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            diag.neg_power(f, p)


def test_m_star_and_mass_bound_check():
    assert diag.m_star(1.0, 1.0, 1.0, 1.0) == 1.0
    assert diag.m_star(5.0, 1.0, 2.0, 1.0) == 5.0
    assert diag.m_star(0.1, 0.0, 0.0, 1.0) == 0.1
    assert diag.m_star(0.1, 1.0, 0.0, 1.0) == math.inf
    assert diag.check_mass_bound(1.0, 1.0).passed
    check = diag.check_mass_bound(1.1, 1.0)
    assert not check.passed and check.value == 1.1 and check.value > check.bound


def test_check_persistence_and_trend_floors():
    # both read the mass and min_v columns
    mass, min_v = [1.0, 0.9, 0.8, 0.8], [0.5, 0.45, 0.4, 0.4]
    ok = diag.check_persistence(mass, min_v, 0.5, 0.2)
    assert ok.passed
    bad = diag.check_persistence(mass, min_v, 0.85, 0.2)
    assert not bad.passed
    floors = diag.trend_floors(mass, min_v)
    assert floors == (0.45, 0.225)
    with pytest.raises(ParameterError):
        diag.check_persistence(mass, min_v, 0.0, 0.1)


def test_reverse_holder_equality_case():
    g = Grid.line(1.0, 32)
    one = ScalarField.full(g, 1.0)
    for p in (1.5, 2.0, 3.0):
        check = diag.reverse_holder_check(one, one, p)
        assert check.passed
        assert check.lhs == pytest.approx(check.rhs, rel=1e-12)


def test_reverse_holder_validation():
    g = Grid.line(1.0, 8)
    one = ScalarField.full(g, 1.0)
    for p in (1.0, 0.5, math.nan, math.inf):
        with pytest.raises(ParameterError, match="needs a finite p > 1"):
            diag.reverse_holder_check(one, one, p)
    with pytest.raises(ParameterError, match="needs f >= 0"):
        diag.reverse_holder_check(ScalarField.full(g, -1.0), one, 2.0)
    for value in (0.0, -1.0):
        with pytest.raises(ParameterError, match="needs g > 0"):
            diag.reverse_holder_check(one, ScalarField.full(g, value), 2.0)


def test_reverse_holder_random_trials():
    assert reverse_holder_violations(Grid.line(1.0, 64), 250, 73, (0.0, 3.0), (0.01, 5.0)) == 0


def test_reverse_holder_reproduces_negative_power_mass_bound():
    # chain: int u >= |Omega|^((p+1)/p) * (int u^-p)^(-1/p), via f=1, g=u
    gen = np.random.Generator(np.random.Philox(key=79))
    g = Grid.line(1.0, 64)
    window = beta_window(1.0, 1.0, 1.0)
    p_hat = window.p_hat
    for _ in range(20):
        u = ScalarField(g, gen.uniform(0.05, 3.0, g.shape))
        check = diag.reverse_holder_check(ScalarField.full(g, 1.0), u,
                                          (p_hat + 1.0) / p_hat)
        assert check.passed
        lhs = integrate(u)
        rhs = g.measure ** ((p_hat + 1.0) / p_hat) * diag.neg_power(u, p_hat) ** (-1.0 / p_hat)
        assert lhs >= rhs * (1.0 - 1e-12)
        assert check.lhs == pytest.approx(lhs)
        assert check.rhs == pytest.approx(rhs, rel=1e-9)


def test_grad_ratio_needs_2d():
    g1 = Grid.line(1.0, 16)
    u = ScalarField.full(g1, 1.0)
    with pytest.raises(ParameterError):
        diag.grad_ratio(u, u, 1.5)
    g2 = Grid.box(1.0, 1.0, 12, 12)
    u2 = ScalarField.from_function(g2, lambda x, y: 1.0 + x * y)
    v2 = solve_chemical(u2, 1.0, 1.0)
    val = diag.grad_ratio(u2, v2, 1.5)
    assert val > 0.0 and math.isfinite(val)


def test_csv_header_and_row_are_stable():
    header = "t,mass,min_u,max_u,min_v,max_v,rayleigh,log_mass,v_ratio,lp_2,negpow_8"
    series = diag.RecordSeries((2.0,), (8.0,), None)
    assert ",".join(series.names) == header
    series.append([0.5, 1.0, 0.1, 2.0, 0.3, 0.9, 0.01, -0.2, 0.3, 1.5, 42.0])
    rec = SimpleNamespace(t=0.5, mass=1.0, min_u=0.1, max_u=2.0, min_v=0.3, max_v=0.9,
                          rayleigh=0.01, log_mass=-0.2, v_ratio=0.3, lp_2=1.5, negpow_8=42.0)
    assert series[0] == rec
    fh = io.StringIO()
    series.write_csv(fh)
    assert fh.getvalue() == header + "\n" + row_text(rec, header.split(",")) + "\n"
    row = fh.getvalue().splitlines()[1]
    assert row.split(",")[0] == "0.5"
    assert row.split(",")[-1] == "42"
    assert len(row.split(",")) == len(header.split(","))


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# two NaN payloads, both signs of zero and infinity, and the double range's ends
SPECIAL = [-0.0, math.inf, -math.inf, _double(0x7FF8000000000001), _double(0xFFF80000DEADBEEF),
           5e-324, 1.7976931348623157e308, 0.1, 0.0]


def _word(x) -> bytes:
    assert type(x) is float
    return struct.pack("<d", x)


def _bits(row: SimpleNamespace, names) -> list[tuple[str, bytes]]:
    """A row's attributes, checked to be exactly ``names``, as (name, bit
    pattern) pairs, each value checked to be a Python float."""
    assert list(vars(row)) == list(names)
    return [(name, _word(getattr(row, name))) for name in names]


# (p_list, neg_p_list, grad_p) -> the header's names after COLUMNS
SERIES_TAILS = {((), (), None): "", ((), (), 1.5): ",grad_ratio_1.5",
                ((3.5, 1.0, 2.0), (8.0,), None): ",lp_3.5,lp_1,lp_2,negpow_8",
                ((2.0,), (8.0, 0.5), 2.5): ",lp_2,negpow_8,negpow_0.5,grad_ratio_2.5"}


@pytest.mark.parametrize("p_list, neg_p, grad_p", list(SERIES_TAILS))
def test_record_series_returns_records_bit_for_bit(p_list, neg_p, grad_p):
    header = ("t,mass,min_u,max_u,min_v,max_v,rayleigh,log_mass,v_ratio"
              + SERIES_TAILS[p_list, neg_p, grad_p])
    names = header.split(",")
    series = diag.RecordSeries(p_list, neg_p, grad_p)
    assert isinstance(series, Sequence) and len(series) == 0 and not series
    assert list(series.names) == names and series.width == len(names)
    assert set(vars(series)) == {"names", "width", "_rows"}
    rows = []
    for k in range(len(SPECIAL)):  # every column takes every special value
        vals = SPECIAL[k:] + SPECIAL[:k]
        lp = [vals[i % 9] for i in range(1, len(p_list) + 1)]
        negpow = [vals[i % 9] for i in range(4, len(neg_p) + 4)]
        grad = [vals[-1]] if grad_p is not None else []
        rows.append(vals + lp + negpow + grad)
        series.append(rows[-1])
    # a row of the wrong width is rejected and leaves the series as it was
    for bad in (rows[0][:-1], rows[0] + [0.0]):
        with pytest.raises(ValueError):
            series.append(bad)
    assert len(series) == len(rows)
    expected = [list(zip(names, map(_word, row))) for row in rows]
    assert [_bits(r, names) for r in series] == expected
    assert _bits(series[-1], names) == expected[-1] and _bits(series[-9], names) == expected[0]
    assert [_bits(r, names) for r in reversed(series)] == expected[::-1]
    for index in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            series[index]
    unpickled = pickle.loads(pickle.dumps(series))
    assert [_bits(r, names) for r in unpickled] == expected
    # every header name reads its column, also after a pickle, and each row's
    # attribute of that name is the column's value
    for copy in (series, unpickled):
        for j, name in enumerate(names):
            column = [_word(v) for v in copy.column(name).tolist()]
            assert column == [_word(row[j]) for row in rows], name
            assert [_word(getattr(r, name)) for r in copy] == column, name
    for name in ("grad_ratio", "lp_9", "negpow_2.5"):
        with pytest.raises(ValueError):
            series.column(name)
    fh = io.StringIO()
    series.write_csv(fh)
    assert fh.getvalue().splitlines() == [header] + [row_text(r, names) for r in series]


def test_record_series_rejects_repeated_names():
    # p = 2 and 2.0000001 both name lp_2; a norm and a negative power of the
    # same p do not clash
    for p_list in ((2.0, 2.0), (2.0, 2.0000001)):
        with pytest.raises(ValueError, match="^repeated column names in "):
            diag.RecordSeries(p_list, (), None)
    assert diag.RecordSeries((2.0,), (2.0,), 2.0).names[-3:] == ("lp_2", "negpow_2",
                                                                  "grad_ratio_2")


def _named(row, p_list=(), neg_p_list=(), grad_p=None) -> dict:
    """compute_record's row keyed by its header names, each checked to be a
    Python float."""
    names = diag.RecordSeries(p_list, neg_p_list, grad_p).names
    assert len(row) == len(names) and all(type(x) is float for x in row)
    return dict(zip(names, row))


def test_compute_record_from_solver_state():
    g = Grid.line(1.0, 64)
    u = ScalarField.from_function(g, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    v = solve_chemical(u, 1.0, 1.0)
    rec = _named(diag.compute_record(u, v, t=1.25, p_list=(2.0, 3.0), neg_p_list=(2.0,)),
                 (2.0, 3.0), (2.0,))
    assert rec["t"] == 1.25
    assert rec["mass"] == pytest.approx(integrate(u))
    assert rec["min_v"] > 0.0
    assert rec["v_ratio"] == pytest.approx(rec["min_v"] / rec["mass"])
    assert list(rec)[-3:] == ["lp_2", "lp_3", "negpow_2"]
    assert math.isfinite(rec["negpow_2"])


def test_compute_record_error_precedence():
    grid = Grid.line(1.0, 16)
    ones = np.ones(16)
    u_bad, u_neg, v_low = ones.copy(), ones.copy(), ones.copy()
    u_bad[3], u_neg[5], v_low[2] = math.nan, -1.0, 0.0
    v_low_inf = v_low.copy()
    v_low_inf[9] = math.inf

    def record(u, v, **kw):
        return diag.compute_record(ScalarField(grid, u), ScalarField(grid, v), 0.0, **kw)
    # a non-finite u first, before any check of v or of an exponent
    with pytest.raises(CorruptFieldError):
        record(u_bad, v_low_inf, p_list=(0.5,), neg_p_list=(0.0,), grad_p=1.5)
    # a v with a cell at or below 0 next, before v's finiteness
    for v in (v_low, v_low_inf):
        with pytest.raises(ParameterError, match="^rayleigh needs a positive field$"):
            record(u_neg, v, p_list=(0.5,), neg_p_list=(0.0,), grad_p=1.5)
    # then p_list, in order, each p before the sign of u; then the
    # negative powers, then grad_p
    for p in (0.5, math.nan, math.inf):
        with pytest.raises(ParameterError, match=f"^lp_norm needs a finite p >= 1, got {p}$"):
            record(u_neg, ones, p_list=(p, 2.0), neg_p_list=(0.0,), grad_p=1.5)
    with pytest.raises(ParameterError, match="^lp_norm needs a nonnegative field$"):
        record(u_neg, ones, p_list=(2.0, 0.5), neg_p_list=(0.0,), grad_p=1.5)
    for p in (0.0, math.nan, math.inf):
        with pytest.raises(ParameterError, match=f"^neg_power needs a finite p > 0, got {p}$"):
            record(u_neg, ones, neg_p_list=(1.0, p), grad_p=1.5)
    with pytest.raises(ParameterError, match="^grad_ratio needs 1 < p < dim=1, got 1.5$"):
        record(u_neg, ones, neg_p_list=(1.0,), grad_p=1.5)
    # a negative u with no p_list is a degeneracy flag, not an error
    rec = _named(record(u_neg, ones, neg_p_list=(2.0,)), (), (2.0,))
    assert (rec["log_mass"], rec["negpow_2"]) == (-math.inf, math.inf)


def _record_cases():
    line = Grid.line(1.0, 64)
    box = Grid.box(1.5, 1.0, 12, 10)
    x = line.centers(0)
    yield "1d", ScalarField(line, 1.0 + 0.5 * np.sin(2 * np.pi * x)), None
    yield "2d", ScalarField.from_function(box, lambda x, y: 1.0 + x * y), 1.5
    # a narrow bump on a zero baseline: cells at and below DEGENERACY_FLOOR
    yield "underflow", ScalarField(line, 50.0 * np.exp(-((x - 0.3) / 0.01) ** 2)), None


@pytest.mark.parametrize("name, u, grad_p", list(_record_cases()),
                         ids=[case[0] for case in _record_cases()])
def test_record_fields_equal_the_public_functionals_bit_for_bit(name, u, grad_p):
    v = solve_chemical(u, 1.0, 1.0)
    p_list, neg_p_list = (1.0, 2.0, 3.5), (2.0, 8.0)
    rec = _named(diag.compute_record(u, v, 0.5, p_list, neg_p_list, grad_p),
                 p_list, neg_p_list, grad_p)
    mass = integrate(u)
    expected = {"t": 0.5, "mass": mass, "min_u": u.min(), "max_u": u.max(), "min_v": v.min(),
                "max_v": v.max(), "rayleigh": diag.rayleigh(v), "log_mass": diag.log_mass(u),
                "v_ratio": v.min() / mass}
    expected.update(zip(("lp_1", "lp_2", "lp_3.5"), [diag.lp_norm(u, p) for p in p_list]))
    expected.update(zip(("negpow_2", "negpow_8"), [diag.neg_power(u, p) for p in neg_p_list]))
    if grad_p:
        expected["grad_ratio_1.5"] = diag.grad_ratio(u, v, grad_p)
    # the row's columns in the header's order, each the functional's value bit for bit
    assert [(k, repr(val)) for k, val in rec.items()] == [
        (k, repr(val)) for k, val in expected.items()]
    if name == "underflow":
        assert rec["log_mass"] == -math.inf and rec["negpow_8"] == math.inf


def test_a_record_checks_each_field_once(monkeypatch):
    from chemotaxsim import mesh
    checked = []

    def require_finite(f, what="field"):
        checked.append(f)
        return original(f, what)
    original = mesh.require_finite
    for module in (mesh, diag):
        monkeypatch.setattr(module, "require_finite", require_finite)
    g = Grid.line(1.0, 256)
    u = ScalarField.from_function(g, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    v = solve_chemical(u, 1.0, 1.0)
    checked.clear()
    diag.compute_record(u, v, 0.0, (2.0, 3.0, 4.0), (8.0,))
    # v's check is of v scaled exactly by a power of two (the Rayleigh monitor's)
    assert len(checked) == 2 and checked[0] is u
    scale = v.max() / checked[1].max()
    assert math.frexp(scale)[0] == 0.5 and np.array_equal(checked[1].values * scale, v.values)


def test_row_values_are_formatted_as_format_17g(tmp_path):
    from chemotaxsim.mesh import write_snapshot
    vals = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1.0]
    expected = vals + [2.5, 1e-300, -1e300, math.nan]
    series = diag.RecordSeries((2.0,), (8.0,), 1.5)
    series.append(expected)
    fh = io.StringIO()
    series.write_csv(fh)
    assert fh.getvalue().splitlines()[1] == ",".join(format(v, ".17g") for v in expected)
    path = tmp_path / "row.field"
    write_snapshot(ScalarField(Grid.box(1.0, 1.0, 2, 4), np.reshape(vals, (2, 4))), 0.0, path)
    assert path.read_text().splitlines()[1:] == [format(v, ".17g") for v in vals]
