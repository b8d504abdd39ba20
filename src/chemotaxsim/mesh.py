"""Uniform cell-centered grids with Neumann (mirror ghost) closure.

The grid covers an axis-aligned box in any number of dimensions; every
stencil loops over the axes.  Cell values are stored row-major over the axes
(C order), so ``values.ravel()`` is the documented linear cell index: in 2D,
cell (i, j) sits at index ``i*ny + j``.
Face arrays hold the interior faces only: an axis's face array has the cell
shape with that axis one shorter.  Boundary faces carry zero gradient and
zero flux, the discrete homogeneous Neumann condition with mirrored ghost
cells; that zero is implied and never stored.
"""
from __future__ import annotations

import os
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
        if not all(float(n).is_integer() for n in self.cells):  # no silent truncation
            raise ParameterError(f"cell counts must be integers, got {self.cells}")
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

    @cached_property
    def face_slices(self) -> tuple[tuple[tuple[slice, ...], tuple[slice, ...]], ...]:
        """Per axis, index tuples ``(lo, hi)`` that pick on a cell array the
        cells left and right of every interior face, in face-array order."""
        full = (slice(None),) * self.dim
        return tuple(tuple(full[:ax] + (s,) + full[ax + 1:]
                           for s in (slice(0, -1), slice(1, None))) for ax in range(self.dim))


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
    """Per-axis gradients on the interior faces: (right - left)/h between
    neighbors.  The boundary faces' zero gradient is implied."""
    require_finite(f)
    return [(f.values[hi] - f.values[lo]) / h
            for (lo, hi), h in zip(f.grid.face_slices, f.grid.spacing)]


def cell_gradient_sq(f: ScalarField) -> ScalarField:
    """Cell-centered |grad f|^2.

    Per axis the two faces of every cell are averaged, squared and summed
    over axes; a boundary cell's boundary face counts as zero.
    """
    grid = f.grid
    total = np.zeros(grid.shape)
    for (lo, hi), g in zip(grid.face_slices, face_gradient(f)):
        pair = np.zeros(grid.shape)
        pair[lo] = g
        pair[hi] += g
        avg = 0.5 * pair
        total += avg * avg
    return ScalarField(grid, total)


def divergence(grid: Grid, fluxes: list[np.ndarray]) -> np.ndarray:
    """Discrete divergence of per-axis interior-face fluxes.

    Each cell gets (right face - left face)/h per axis, with zero flux on the
    boundary faces, so the cell sum of the result telescopes to zero: the
    discrete conservation every mass identity in this package rests on.
    """
    div = 0.0  # first axis: 0.0 + x turns -0.0 into +0.0, as a sum started from zeros does
    for (lo, hi), flux, h in zip(grid.face_slices, fluxes, grid.spacing):
        net = np.zeros(grid.shape)  # the one array per axis; the first axis's is the result
        net[lo] = flux
        net[hi] -= flux
        net /= h
        div = np.add(net, div, out=net)
    return div


# --- snapshot file format ---------------------------------------------------

def write_snapshot(f: ScalarField, t: float, path) -> None:
    """Write a field snapshot: header ``dim n_1..n_dim L_1..L_dim t``, then
    cell values in row-major order, whitespace separated, full precision."""
    grid = f.grid
    head = [str(grid.dim)] + [str(n) for n in grid.cells]
    head += [f"{e:.17g}" for e in grid.extents] + [f"{t:.17g}"]
    # one last-axis row at a time, so the file's text is never held whole
    line = "%.17g\n" * grid.cells[-1]  # over Python floats: format(v, ".17g")
    with Path(path).open("w") as fh:
        fh.write(" ".join(head) + "\n")
        for row in f.values.reshape(-1, grid.cells[-1]):
            fh.write(line % tuple(row.tolist()))


def read_snapshot(path) -> tuple[ScalarField, float]:
    """Read a :func:`write_snapshot` file a line at a time into one array of the
    header's size; one that does not parse raises CorruptFieldError."""
    with Path(path).open() as fh:
        size = os.fstat(fh.fileno()).st_size
        tokens = (tok for line in fh for tok in line.split())
        try:
            dim = int(next(tokens))
            cells = tuple([int(next(tokens)) for _ in range(dim)])
            extents = tuple([float(next(tokens)) for _ in range(dim)])
            t = float(next(tokens))
            grid = Grid(extents, cells)  # a ParameterError is a ValueError
            if 2 * grid.num_cells > size:  # a value takes a digit and a separator
                raise ValueError(f"{grid.num_cells} values cannot fit in {size} bytes")
            vals = np.fromiter(map(float, tokens), np.float64, count=grid.num_cells)
        except (StopIteration, ValueError) as err:  # too short, or too big a header
            raise CorruptFieldError(f"malformed snapshot: {err!r}") from err
        if next(tokens, None) is not None:
            raise CorruptFieldError(f"snapshot has more than {grid.num_cells} values")
    return ScalarField(grid, vals.reshape(grid.shape)), t
