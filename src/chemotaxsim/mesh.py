"""Uniform cell-centered grids with Neumann (mirror ghost) closure.

The grid covers an axis-aligned box in any number of dimensions; every
stencil loops over the axes.  Cell values are stored row-major over the axes
(C order), so ``values.ravel()`` is the documented linear cell index: in 2D,
cell (i, j) sits at index ``i*ny + j``.
Faces on the domain boundary always carry zero gradient / zero flux, which is
the discrete form of a homogeneous Neumann condition with mirrored ghost
cells.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import CorruptFieldError, ParameterError


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered rectangular mesh.

    extents: physical length per axis.
    cells:   number of cells per axis (>= 2 each).

    spacing is derived as extent/cells; with power-of-two cell counts the
    identity spacing*cells == extent is exact in binary arithmetic.
    """

    extents: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        extents = tuple(float(e) for e in self.extents)
        cells = tuple(int(n) for n in self.cells)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "cells", cells)
        if len(extents) != len(cells):
            raise ParameterError("extents and cells must have the same length")
        if not extents:
            raise ParameterError("a grid needs at least one axis")
        if any(n < 2 for n in cells):
            raise ParameterError(f"need at least 2 cells per axis, got {cells}")
        if any(not np.isfinite(e) or e <= 0 for e in extents):
            raise ParameterError(f"extents must be positive and finite, got {extents}")

    @classmethod
    def line(cls, length: float, n: int) -> "Grid":
        return cls((length,), (n,))

    @classmethod
    def box(cls, lx: float, ly: float, nx: int, ny: int) -> "Grid":
        return cls((lx, ly), (nx, ny))

    @cached_property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @cached_property
    def num_cells(self) -> int:
        return int(np.prod(self.cells))

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / n for e, n in zip(self.extents, self.cells))

    @cached_property
    def min_spacing(self) -> float:
        return min(self.spacing)

    @cached_property
    def measure(self) -> float:
        """|Omega|, the volume of the box."""
        return float(np.prod(self.extents))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def coordinate_fields(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays broadcast to the full cell shape."""
        axes = [self.centers(ax) for ax in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def face_shape(self, axis: int) -> tuple[int, ...]:
        s = list(self.cells)
        s[axis] += 1
        return tuple(s)

    @cached_property
    def _face_slices(self) -> tuple[tuple[tuple[slice, ...], ...], ...]:
        full = (slice(None),) * self.dim
        return tuple(
            tuple(full[:ax] + (s,) + full[ax + 1:]
                  for s in (slice(0, -1), slice(1, None), slice(1, -1)))
            for ax in range(self.dim))

    def face_slices(self, axis: int) -> tuple[tuple[slice, ...], ...]:
        """Index tuples ``(lo, hi, inner)`` along ``axis``.

        On a cell array lo and hi pick the cells left and right of every
        interior face; on a face array they pick each cell's left and right
        face, and inner picks the interior faces.
        """
        return self._face_slices[axis]


@dataclass(eq=False)
class ScalarField:
    """One real value per cell of a :class:`Grid`."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise ParameterError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        self.values = vals

    @classmethod
    def full(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        """Sample ``fn(*coords)`` at cell centers."""
        return cls(grid, np.asarray(fn(*grid.coordinate_fields()), dtype=np.float64))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


def require_finite(f: ScalarField, what: str = "field") -> None:
    if not np.isfinite(f.values).all():
        raise CorruptFieldError(f"{what} contains non-finite values")


def integrate(f: ScalarField) -> float:
    """Midpoint quadrature: sum of cell values times cell volume.

    Exact for cellwise-constant data and for fields linear in each
    coordinate (midpoint sampling).
    """
    require_finite(f)
    return float(f.values.sum() * f.grid.cell_volume)


def face_gradient(f: ScalarField) -> list[np.ndarray]:
    """Per-axis face-normal gradients; boundary faces are exactly zero.

    Interior face between neighbors gets (right - left)/h.  The mirror
    ghost convention makes every boundary face gradient vanish.
    """
    require_finite(f)
    grid = f.grid
    out = []
    for ax in range(grid.dim):
        lo, hi, inner = grid.face_slices(ax)
        g = np.zeros(grid.face_shape(ax))
        g[inner] = (f.values[hi] - f.values[lo]) / grid.spacing[ax]
        out.append(g)
    return out


def cell_gradient_sq(f: ScalarField) -> ScalarField:
    """Cell-centered |grad f|^2.

    Per axis the two adjacent face gradients are averaged, squared and
    summed over axes.  Boundary cells see the zero boundary face from the
    mirrored ghost.
    """
    grid = f.grid
    total = np.zeros(grid.shape)
    for ax, g in enumerate(face_gradient(f)):
        lo, hi, _ = grid.face_slices(ax)
        avg = 0.5 * (g[lo] + g[hi])
        total += avg * avg
    return ScalarField(grid, total)


def divergence(grid: Grid, fluxes: list[np.ndarray]) -> np.ndarray:
    """Discrete divergence of per-axis face fluxes.

    With zero boundary faces the cell sum of the result telescopes to zero,
    which is what every conservation test in this package relies on.
    """
    div = np.zeros(grid.shape)
    for ax, flux in enumerate(fluxes):
        lo, hi, _ = grid.face_slices(ax)
        div += (flux[hi] - flux[lo]) / grid.spacing[ax]
    return div


# --- snapshot / CSV file formats ------------------------------------------

def write_snapshot(f: ScalarField, t: float, path) -> None:
    """Write a field snapshot: header ``dim n_1..n_dim L_1..L_dim t``, then
    cell values in row-major order, whitespace separated, full precision."""
    grid = f.grid
    head = [str(grid.dim)] + [str(n) for n in grid.cells]
    head += [f"{e:.17g}" for e in grid.extents] + [f"{t:.17g}"]
    lines = [" ".join(head)]
    lines += [f"{v:.17g}" for v in f.values.ravel()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_snapshot(path) -> tuple[ScalarField, float]:
    tokens = Path(path).read_text().split()
    dim = int(tokens[0])
    cells = tuple(int(x) for x in tokens[1:1 + dim])
    extents = tuple(float(x) for x in tokens[1 + dim:1 + 2 * dim])
    t = float(tokens[1 + 2 * dim])
    vals = np.array([float(x) for x in tokens[2 + 2 * dim:]])
    grid = Grid(extents, cells)
    if vals.size != grid.num_cells:
        raise CorruptFieldError(f"snapshot has {vals.size} values, expected {grid.num_cells}")
    return ScalarField(grid, vals.reshape(grid.shape)), t


def export_csv(f: ScalarField, path) -> None:
    """Write cell coordinates and values as CSV, one row per cell: the axis
    columns x, y, z, x4, x5, ... (as many as the grid has), then value."""
    grid = f.grid
    coords = grid.coordinate_fields()
    cols = [c.ravel() for c in coords] + [f.values.ravel()]
    names = ["x", "y", "z"] + [f"x{ax + 1}" for ax in range(3, grid.dim)]
    header = ",".join(names[: grid.dim] + ["value"])
    rows = [header]
    for vals in zip(*cols):
        rows.append(",".join(f"{v:.17g}" for v in vals))
    Path(path).write_text("\n".join(rows) + "\n")
