import tracemalloc

import numpy as np
import pytest

from chemotaxsim.errors import CorruptFieldError, ParameterError
from chemotaxsim.mesh import (Grid, ScalarField, cell_gradient_sq, divergence,
                              face_gradient, integrate, read_snapshot,
                              write_snapshot)


def test_grid_basics():
    g = Grid.line(1.0, 64)
    assert g.dim == 1
    assert g.spacing == (1.0 / 64,)
    assert g.spacing[0] * g.cells[0] == g.extents[0]  # exact for binary sizes
    assert g.measure == 1.0
    g2 = Grid.box(2.0, 1.0, 16, 8)
    assert g2.dim == 2
    assert g2.measure == 2.0
    assert g2.cell_volume == (2.0 / 16) * (1.0 / 8)
    assert g2.spacing[0] * g2.cells[0] == g2.extents[0]
    assert g2.spacing[1] * g2.cells[1] == g2.extents[1]
    assert Grid.box(1.0, 1.0, np.int64(4), np.int32(3)).cells == (4, 3)


def test_face_slices_are_cached_and_index_faces():
    g = Grid.box(2.0, 1.0, 4, 3)
    assert g.face_slices is g.face_slices
    lo, hi = g.face_slices[1]
    assert (lo, hi) == ((slice(None), slice(0, -1)), (slice(None), slice(1, None)))
    cells = np.arange(12.0).reshape(4, 3)
    faces = face_gradient(ScalarField(g, cells))
    assert cells[lo].shape == cells[hi].shape == faces[1].shape == (4, 2)
    assert faces[0].shape == (3, 3)


@pytest.mark.parametrize("extents,cells", [
    ((1.0,), (1,)),
    ((0.0,), (8,)),
    ((-1.0,), (8,)),
    ((), ()),
    ((1.0, 1.0), (4,)),
    ((1.0,), (2.7,)),
    ((1.0,), (float("nan"),)),
])
def test_grid_rejects_bad_arguments(extents, cells):
    with pytest.raises(ParameterError):
        Grid(extents, cells)


def test_field_shape_must_match():
    g = Grid.line(1.0, 8)
    with pytest.raises(ParameterError):
        ScalarField(g, np.zeros(9))


def test_integrate_constant_and_linear():
    g = Grid.line(1.0, 64)
    assert integrate(ScalarField.full(g, 1.0)) == pytest.approx(1.0, abs=1e-14)
    f = ScalarField.from_function(g, lambda x: x)
    # midpoint rule is exact for linears
    assert integrate(f) == pytest.approx(0.5, abs=1e-14)


def test_integrate_quadratic_midpoint_error():
    n = 100
    g = Grid.line(1.0, n)
    f = ScalarField.from_function(g, lambda x: x ** 2)
    h = 1.0 / n
    assert abs(integrate(f) - 1.0 / 3.0) <= h * h / 12.0 + 1e-12


def test_integrate_linearity():
    g = Grid.line(1.0, 50)
    gen = np.random.Generator(np.random.Philox(key=3))
    f = ScalarField(g, gen.normal(size=g.shape))
    q = ScalarField(g, gen.normal(size=g.shape))
    lhs = integrate(ScalarField(g, 2.5 * f.values - 1.75 * q.values))
    rhs = 2.5 * integrate(f) - 1.75 * integrate(q)
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_integrate_rejects_corrupt_field():
    g = Grid.line(1.0, 8)
    vals = np.ones(8)
    vals[3] = np.nan
    with pytest.raises(CorruptFieldError):
        integrate(ScalarField(g, vals))


def test_face_gradient_constant_is_zero():
    g = Grid.line(1.0, 32)
    (gx,) = face_gradient(ScalarField.full(g, 4.2))
    assert gx.shape == (31,)
    assert np.all(gx == 0.0)


def test_face_gradient_linear_1d():
    g = Grid.line(1.0, 32)
    (gx,) = face_gradient(ScalarField.from_function(g, lambda x: 3.0 * x))
    assert gx.shape == (31,)
    assert np.allclose(gx, 3.0, atol=1e-12)


def test_face_gradient_linear_2d():
    g = Grid.box(1.0, 1.0, 16, 12)
    gx, gy = face_gradient(ScalarField.from_function(g, lambda x, y: x + 2.0 * y))
    assert gx.shape == (15, 12) and gy.shape == (16, 11)
    assert np.allclose(gx, 1.0, atol=1e-12)
    assert np.allclose(gy, 2.0, atol=1e-12)


def test_cell_gradient_sq_trivial_cases():
    g = Grid.line(1.0, 32)
    assert cell_gradient_sq(ScalarField.full(g, 7.0)).max() == 0.0
    f = ScalarField.from_function(g, lambda x: 3.0 * x)
    gsq = cell_gradient_sq(f).values
    assert np.allclose(gsq[1:-1], 9.0, atol=1e-12)


def test_cell_gradient_sq_matches_face_sum_for_gaussian():
    g = Grid.line(1.0, 256)
    f = ScalarField.from_function(g, lambda x: np.exp(-((x - 0.5) ** 2) / 0.02))
    cell_total = integrate(cell_gradient_sq(f))
    (gx,) = face_gradient(f)
    face_total = float((gx ** 2).sum() * g.cell_volume)
    assert cell_total == pytest.approx(face_total, rel=0.02)


def test_divergence_theorem_for_interior_fluxes():
    gen = np.random.Generator(np.random.Philox(key=5))
    for g in (Grid.line(1.0, 12), Grid.box(1.0, 2.0, 12, 10), Grid((1.0, 2.0, 0.5), (5, 4, 3))):
        # one interior-face array per axis: the cell shape, that axis one shorter
        fluxes = [gen.normal(size=np.subtract(g.cells, np.eye(g.dim, dtype=int)[ax]))
                  for ax in range(g.dim)]
        div = divergence(g, fluxes)
        assert div.shape == g.shape
        assert abs(div.sum() * g.cell_volume) <= 1e-12


def test_divergence_has_no_negative_zero():
    # a sum started from zeros turned a -0.0 net flux into +0.0; the result
    # keeps those bits, here a -0.0 first face and -0.0 - 0.0 inside
    for g, fluxes in ((Grid.line(1.0, 4), [np.array([-0.0, 0.0, 0.0])]),
                      (Grid.box(1.0, 1.0, 2, 3), [np.full((1, 3), -0.0), np.full((2, 2), -0.0)])):
        div = divergence(g, fluxes)
        assert not np.signbit(div).any(), div


def test_snapshot_roundtrip_bitwise(tmp_path):
    gen = np.random.Generator(np.random.Philox(key=9))
    for g in (Grid.box(1.5, 1.0, 8, 6), Grid((1.5, 1.0, 0.7), (3, 4, 5))):
        f = ScalarField(g, gen.uniform(0.0, 3.0, g.shape))
        path = tmp_path / "state.field"
        write_snapshot(f, t=0.625, path=path)
        back, t = read_snapshot(path)
        assert t == 0.625
        assert back.grid == g
        assert np.array_equal(back.values, f.values)


def test_snapshot_is_written_a_row_at_a_time(tmp_path):
    # a 48^3 snapshot is a 2.1 MB file; its text is never held whole, and
    # reading it back holds the 0.88 MB result and one line, not a token list
    g = Grid((1.0, 1.0, 1.0), (48, 48, 48))
    gen = np.random.Generator(np.random.Philox(key=3))
    f = ScalarField(g, gen.uniform(0.0, 3.0, g.shape))
    path = tmp_path / "big.field"
    tracemalloc.start()
    try:
        write_snapshot(f, t=1.0, path=path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
    tracemalloc.start()
    try:
        back, t = read_snapshot(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < f.values.nbytes + 2 ** 17, peak  # the result plus 128 KiB
    assert t == 1.0
    assert back.values.tobytes() == f.values.tobytes()


def test_snapshot_header_layout(tmp_path):
    g = Grid.line(2.0, 4)
    f = ScalarField.full(g, 1.0)
    path = tmp_path / "s.field"
    write_snapshot(f, t=0.25, path=path)
    head = path.read_text().splitlines()[0].split()
    assert head == ["1", "4", "2", "0.25"]
    # empty, header cut short, non-numeric, one value short, one too many,
    # a non-numeric value, and a header asking for more values than the
    # file's bytes can hold, rejected before anything is allocated
    for text in ("", "1 4", "x", "1 4 2 0.25 1 1 1", "1 4 2 0.25 1 1 1 1 1",
                 "1 4 2 0.25 1 1 x 1", "3 1000000 1000000 1000000 1 1 1 0 1"):
        path.write_text(text)
        with pytest.raises(CorruptFieldError):
            read_snapshot(path)


def test_row_major_cell_order():
    g = Grid.box(1.0, 1.0, 3, 2)
    f = ScalarField.from_function(g, lambda x, y: 10.0 * x + y)
    flat = f.values.ravel()
    # index i*ny + j: cell (1, 0) sits at position 2
    x = g.centers(0)
    y = g.centers(1)
    assert flat[2] == pytest.approx(10.0 * x[1] + y[0])
