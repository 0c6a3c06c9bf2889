"""Exact arithmetic for finite-index sublattices of Z^2.

A sublattice is stored as an integer matrix whose *rows* span it.  All
quotient bookkeeping (membership, the cosets as a Smith box and their
indices) is done with a 2x2 Smith normal form, so every operation is exact
integer arithmetic; no floats enter this module.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import gcd
from typing import NamedTuple

# Entries beyond this bound are almost certainly a caller bug (and make
# quotient maps explode), so constructors refuse them loudly.
MAX_ENTRY = 10_000

Vec = tuple[int, int]


class _MatEntries(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class SublatticeMat(_MatEntries):
    """Rows (a, b) and (c, d) span a finite-index sublattice of Z^2.

    The determinant must be nonzero: a rank-deficient matrix does not
    give a finite quotient, hence no compact torus.  Every way of making
    one (the constructor, `_make`, `_replace`, copy and pickle) runs the
    checks in `__new__`.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> "SublatticeMat":
        for entry in (a, b, c, d):
            if type(entry) is not int:  # so True and 3.0 are refused too
                raise TypeError(f"matrix entries must be ints, got {entry!r}")
            if abs(entry) > MAX_ENTRY:
                raise ValueError(f"matrix entry {entry} exceeds bound {MAX_ENTRY}")
        if a * d - b * c == 0:
            raise ValueError("singular matrix does not define a finite-index sublattice")
        return tuple.__new__(cls, (a, b, c, d))

    @classmethod
    def _make(cls, iterable) -> "SublatticeMat":
        return cls(*iterable)

    # The hot methods unpack the entries once: reading a NamedTuple field
    # by name costs about twice as much as an unpacked local.

    @property
    def rows(self) -> tuple[Vec, Vec]:
        a, b, c, d = self
        return (a, b), (c, d)

    def det(self) -> int:
        a, b, c, d = self
        return a * d - b * c

    def index(self) -> int:
        """Index of the sublattice in Z^2, i.e. |det|."""
        return abs(self.det())

    def contains(self, v: Vec) -> bool:
        """Membership test: is v an integer combination of the rows?"""
        x, y = v
        a, b, c, d = self
        det = a * d - b * c
        # Solve (p, q) @ rows = v by Cramer; membership iff both are integral.
        return (x * d - y * c) % det == 0 and (y * a - x * b) % det == 0

    def preserved_by(self, r: tuple[Vec, Vec]) -> bool:
        """Does the integer matrix r map the lattice into itself?  Tested
        on the rows; for a unimodular r this means r K = K."""
        (r00, r01), (r10, r11) = r
        return all(self.contains((r00 * x + r01 * y, r10 * x + r11 * y)) for x, y in self.rows)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return self.a, self.b, self.c, self.d


def cover_exponent(mat: SublatticeMat) -> int:
    """Least m >= 1 such that (m, 0) and (0, m) both lie in the sublattice.

    Equivalently the least m with m * inverse(mat) integral, which works
    out to |det| / gcd(|det|, a, b, c, d).
    """
    n = mat.index()
    g = gcd(n, mat.a, mat.b, mat.c, mat.d)
    m = n // g
    # The closed form is easy to get wrong; keep the cheap sanity check.
    if not (contains_scaled_identity(mat, m)):
        raise AssertionError(f"cover exponent {m} failed containment for {mat}")
    return m


def fold_index(mat: SublatticeMat) -> int:
    """Number of sheets of the cover torus over the base: m^2 / |det|."""
    m = cover_exponent(mat)
    n, rem = divmod(m * m, mat.index())
    if rem:
        raise AssertionError(f"fold index not integral for {mat}")
    return n


def contains_scaled_identity(mat: SublatticeMat, m: int) -> bool:
    """True iff the scaled lattice m * Z^2 sits inside the sublattice."""
    if m <= 0:
        return False
    return mat.contains((m, 0)) and mat.contains((0, m))


def _snf_2x2(mat: SublatticeMat) -> tuple[list[list[int]], int, int]:
    """Diagonalize: U @ mat @ V = diag(s1, s2) with U, V unimodular, s1 | s2.

    Returns (V, s1, s2).  Row operations act on the left, column
    operations on the right; only the column transform V is tracked,
    since no caller reads U.
    """
    a = [[mat.a, mat.b], [mat.c, mat.d]]
    v = [[1, 0], [0, 1]]

    def row_op(i: int, j: int, k: int) -> None:
        # row i -= k * row j
        for t in range(2):
            a[i][t] -= k * a[j][t]

    def col_op(i: int, j: int, k: int) -> None:
        # col i -= k * col j
        for t in range(2):
            a[t][i] -= k * a[t][j]
            v[t][i] -= k * v[t][j]

    def swap_rows() -> None:
        a[0], a[1] = a[1], a[0]

    def swap_cols() -> None:
        for t in range(2):
            a[t][0], a[t][1] = a[t][1], a[t][0]
            v[t][0], v[t][1] = v[t][1], v[t][0]

    # Standard 2x2 reduction: clear the off-diagonal by repeated euclidean
    # steps, restarting when a column operation reintroduces a remainder.
    # The operations are unimodular, so the first column of the nonsingular
    # matrix is never zero, and once nonzero the pivot stays nonzero.
    while True:
        if a[0][0] == 0:
            swap_rows()
        # Clear below the pivot.
        while a[1][0] != 0:
            if abs(a[1][0]) < abs(a[0][0]):
                swap_rows()
            row_op(1, 0, a[1][0] // a[0][0])
        # Clear right of the pivot.
        while a[0][1] != 0:
            if abs(a[0][1]) < abs(a[0][0]):
                swap_cols()
            col_op(1, 0, a[0][1] // a[0][0])
        if a[1][0] == 0 and a[0][1] == 0:
            break

    # Fix signs.
    if a[0][0] < 0:
        row_op(0, 0, 2)  # row 0 -= 2*row 0, i.e. negate
    if a[1][1] < 0:
        row_op(1, 1, 2)
    # Enforce the divisibility s1 | s2 (add col 1 to col 0 and re-reduce).
    # Column 0 starts as (s1, s2) and the Euclid steps keep it nonnegative.
    if a[1][1] % a[0][0] != 0:
        col_op(0, 1, -1)
        while a[1][0] != 0:
            if abs(a[1][0]) < abs(a[0][0]):
                swap_rows()
            row_op(1, 0, a[1][0] // a[0][0])
        while a[0][1] != 0:
            col_op(1, 0, a[0][1] // a[0][0])
        if a[1][1] < 0:
            row_op(1, 1, 2)

    if a[0][1] or a[1][0] or a[0][0] <= 0 or a[1][1] <= 0 or a[1][1] % a[0][0]:
        raise AssertionError(f"smith reduction failed for {mat}: {a}")
    return v, a[0][0], a[1][1]


def _inv_unimodular(v: list[list[int]]) -> list[list[int]]:
    d = v[0][0] * v[1][1] - v[0][1] * v[1][0]
    if d not in (1, -1):
        raise AssertionError("matrix is not unimodular")
    return [[d * v[1][1], -d * v[0][1]], [-d * v[1][0], d * v[0][0]]]


class CosetSystem(NamedTuple):
    """Coset bookkeeping for Z^2 modulo the row lattice of `mat`: the
    Smith box Z/s1 x Z/s2.  Coset i*s2 + j is i·u + j·w, where (u, w) =
    `gens` are the Smith generators, the rows of v^-1; `box_coords` maps
    any integer vector to its coset's (i, j).  Nothing is kept per coset.
    Built once per quotient map and reused for every vertex.
    """

    mat: SublatticeMat
    s1: int
    s2: int
    v: tuple[tuple[int, int], tuple[int, int]]
    gens: tuple[Vec, Vec]

    def size(self) -> int:
        return self.s1 * self.s2

    def box_coords(self, vec: Vec) -> Vec:
        """Coordinates of vec mod the lattice in the Smith box
        Z/s1 x Z/s2 (the change of basis `v` maps the lattice to
        s1 Z x s2 Z).  Coset i*s2 + j has box coordinates (i, j), and the
        map is additive, so a translation moves every coset by one fixed
        box shift."""
        x, y = vec
        (v00, v01), (v10, v11) = self.v
        return (x * v00 + y * v10) % self.s1, (x * v01 + y * v11) % self.s2

    def cell_map(self, dst: "CosetSystem", matrix=((1, 0), (0, 1)), shift: Vec = (0, 0)) -> list[int]:
        """dst's coset index of R·c + shift for each coset c = i·u + j·w of
        this system, in order, with R = matrix.  Box coordinates are
        additive, so the image's box is box(shift) + i·box(R·u) +
        j·box(R·w).  It is a map of cosets when R maps this lattice into
        dst's; the caller checks that."""
        (r00, r01), (r10, r11) = matrix
        (ui, uj), (wi, wj) = (dst.box_coords((r00 * x + r01 * y, r10 * x + r11 * y)) for x, y in self.gens)
        hi, hj = dst.box_coords(shift)
        s1, s2 = dst.s1, dst.s2
        rows = [(hi + i * ui, hj + i * uj) for i in range(self.s1)]  # the image box of coset i*s2
        return [(a + j * wi) % s1 * s2 + (b + j * wj) % s2 for a, b in rows for j in range(self.s2)]


def cosets(mat: SublatticeMat) -> CosetSystem:
    """Build the coset system for Z^2 / row-lattice(mat)."""
    v, s1, s2 = _snf_2x2(mat)
    u, w = _inv_unimodular(v)
    return CosetSystem(mat=mat, s1=s1, s2=s2, v=(tuple(v[0]), tuple(v[1])), gens=(tuple(u), tuple(w)))


def enumerate_hnf(max_index: int) -> Iterator[SublatticeMat]:
    """All sublattices of index <= max_index, one Hermite form each, as
    a generator; the bound is checked when this is called.

    Rows (a, b), (0, d) with a, d >= 1 and 0 <= b < d enumerate every
    finite-index sublattice exactly once.
    """
    if max_index < 1:
        raise ValueError(f"index bound must be positive, got {max_index}")
    if max_index > MAX_ENTRY:
        raise ValueError(f"index bound {max_index} is over the limit of {MAX_ENTRY}")
    return (
        SublatticeMat(a, b, 0, d)
        for a in range(1, max_index + 1)
        for d in range(1, max_index // a + 1)
        for b in range(d)
    )


def random_nonsingular(rng, max_entry: int) -> SublatticeMat:
    """Draw a uniform nonzero-determinant matrix with entries in [-max_entry, max_entry]."""
    if max_entry < 1:
        raise ValueError(f"entry bound must be positive, got {max_entry}")
    while True:
        a, b, c, d = (rng.randint(-max_entry, max_entry) for _ in range(4))
        if a * d - b * c != 0:
            return SublatticeMat(a, b, c, d)


def scaled_identity(m: int) -> SublatticeMat:
    if m <= 0:
        raise ValueError("scale must be positive")
    return SublatticeMat(m, 0, 0, m)


def is_scaled_identity(mat: SublatticeMat) -> bool:
    return mat.b == 0 and mat.c == 0 and mat.a == mat.d and mat.a > 0
