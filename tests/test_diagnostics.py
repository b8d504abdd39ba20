import io
import math
import pickle
import struct
from collections.abc import Sequence

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
    header = diag.csv_header((2.0,), (8.0,), None)
    assert header == "t,mass,min_u,max_u,min_v,max_v,rayleigh,log_mass,v_ratio,lp_2,negpow_8"
    rec = diag.DiagnosticsRecord(t=0.5, mass=1.0, min_u=0.1, max_u=2.0,
                                 min_v=0.3, max_v=0.9, rayleigh=0.01,
                                 log_mass=-0.2, v_ratio=0.3,
                                 lp_norms={2.0: 1.5}, neg_powers={8.0: 42.0})
    series = diag.RecordSeries((2.0,), (8.0,), None)
    series.append(rec)
    fh = io.StringIO()
    series.write_csv(fh)
    assert fh.getvalue() == header + "\n" + row_text(rec) + "\n"
    row = fh.getvalue().splitlines()[1]
    assert row.split(",")[0] == "0.5"
    assert row.split(",")[-1] == "42"
    assert len(row.split(",")) == len(header.split(","))


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# two NaN payloads, both signs of zero and infinity, and the double range's ends
SPECIAL = [-0.0, math.inf, -math.inf, _double(0x7FF8000000000001), _double(0xFFF80000DEADBEEF),
           5e-324, 1.7976931348623157e308, 0.1, 0.0]


def _bits(rec: diag.DiagnosticsRecord):
    """A record's values as bit patterns, each checked to be a Python float,
    with its dict keys in order."""
    def word(x):
        assert type(x) is float
        return struct.pack("<d", x)
    return ([word(getattr(rec, name)) for name in diag.COLUMNS],
            [(p, word(v)) for p, v in rec.lp_norms.items()],
            [(p, word(v)) for p, v in rec.neg_powers.items()],
            None if rec.grad_ratio is None else word(rec.grad_ratio))


@pytest.mark.parametrize("p_list, neg_p, grad_p", [
    ((), (), None), ((), (), 1.5), ((3.5, 1.0, 2.0), (8.0,), None), ((2.0,), (8.0, 0.5), 2.5)])
def test_record_series_returns_records_bit_for_bit(p_list, neg_p, grad_p):
    series = diag.RecordSeries(p_list, neg_p, grad_p)
    assert isinstance(series, Sequence) and len(series) == 0 and not series
    records = []
    for k in range(len(SPECIAL)):  # every column takes every special value
        vals = SPECIAL[k:] + SPECIAL[:k]
        rec = diag.DiagnosticsRecord(
            *vals, lp_norms={p: vals[i % 9] for i, p in enumerate(p_list, 1)},
            neg_powers={p: vals[i % 9] for i, p in enumerate(neg_p, 4)},
            grad_ratio=vals[-1] if grad_p is not None else None)
        series.append(rec)
        records.append(rec)
    assert series.width == len(diag.csv_header(p_list, neg_p, grad_p).split(","))
    assert len(series) == len(records)
    expected = [_bits(r) for r in records]
    assert [_bits(r) for r in series] == expected
    assert _bits(series[-1]) == expected[-1] and _bits(series[-9]) == expected[0]
    assert [_bits(r) for r in series[2:8:3]] == expected[2:8:3]
    assert [_bits(r) for r in series[::-1]] == expected[::-1]
    for index in (len(records), -len(records) - 1):
        with pytest.raises(IndexError):
            series[index]
    assert [_bits(r) for r in pickle.loads(pickle.dumps(series))] == expected
    assert [struct.pack("<d", v) for v in series.column("mass")] == [e[0][1] for e in expected]
    if grad_p is not None:
        assert [struct.pack("<d", v) for v in series.column("grad_ratio")] == [
            e[3] for e in expected]
    else:
        with pytest.raises(ValueError):
            series.column("grad_ratio")
    fh = io.StringIO()
    series.write_csv(fh)
    assert fh.getvalue().splitlines() == [diag.csv_header(p_list, neg_p, grad_p)] + [
        row_text(r) for r in records]


def test_compute_record_from_solver_state():
    g = Grid.line(1.0, 64)
    u = ScalarField.from_function(g, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    v = solve_chemical(u, 1.0, 1.0)
    rec = diag.compute_record(u, v, t=1.25, p_list=(2.0, 3.0), neg_p_list=(2.0,))
    assert rec.t == 1.25
    assert rec.mass == pytest.approx(integrate(u))
    assert rec.min_v > 0.0
    assert rec.v_ratio == pytest.approx(rec.min_v / rec.mass)
    assert set(rec.lp_norms) == {2.0, 3.0}
    assert math.isfinite(rec.neg_powers[2.0])


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
    rec = record(u_neg, ones, neg_p_list=(2.0,))
    assert (rec.log_mass, rec.neg_powers[2.0]) == (-math.inf, math.inf)


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
    rec = diag.compute_record(u, v, 0.5, p_list, neg_p_list, grad_p)
    mass = integrate(u)
    expected = {"mass": mass, "min_u": u.min(), "max_u": u.max(), "min_v": v.min(),
                "max_v": v.max(), "rayleigh": diag.rayleigh(v), "log_mass": diag.log_mass(u),
                "v_ratio": v.min() / mass,
                "grad_ratio": diag.grad_ratio(u, v, grad_p) if grad_p else None}
    expected.update({f"lp_{p}": diag.lp_norm(u, p) for p in p_list})
    expected.update({f"negpow_{p}": diag.neg_power(u, p) for p in neg_p_list})
    got = {key: getattr(rec, key) for key in expected if hasattr(rec, key)}
    got.update({f"lp_{p}": rec.lp_norms[p] for p in p_list})
    got.update({f"negpow_{p}": rec.neg_powers[p] for p in neg_p_list})
    assert {k: repr(val) for k, val in got.items()} == {k: repr(val) for k, val in expected.items()}
    if name == "underflow":
        assert rec.log_mass == -math.inf and rec.neg_powers[8.0] == math.inf


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
    rec = diag.DiagnosticsRecord(*vals, 2.5, lp_norms={2.0: 1e-300}, neg_powers={8.0: -1e300},
                                 grad_ratio=math.nan)
    series = diag.RecordSeries((2.0,), (8.0,), 1.5)
    series.append(rec)
    fh = io.StringIO()
    series.write_csv(fh)
    expected = vals + [2.5, 1e-300, -1e300, math.nan]
    assert fh.getvalue().splitlines()[1] == ",".join(format(v, ".17g") for v in expected)
    path = tmp_path / "row.field"
    write_snapshot(ScalarField(Grid.box(1.0, 1.0, 2, 4), np.reshape(vals, (2, 4))), 0.0, path)
    assert path.read_text().splitlines()[1:] == [format(v, ".17g") for v in vals]
