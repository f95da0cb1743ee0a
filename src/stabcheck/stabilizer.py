"""Stabilizer codes as GF(2) check matrices.

A code on n qubits with n-k independent, pairwise commuting generators is
stored as the (n-k) x 2n check matrix [H_X | H_Z] whose row i is the
symplectic vector of generator i.  The syndrome of an error E is the bit
vector of anticommutation indicators against the generators; by linearity it
equals x_E . H_Z^T + z_E . H_X^T, which is what `syndrome` computes, while
`syndrome_direct` evaluates the per-generator commutation predicate
directly.  The two routes are kept separate on purpose: each is the oracle
for the other in the test suite.

Qubit and generator indices are 1-based in every user-facing string and
0-based everywhere else; parsing and printing are the only boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .symplectic import (
    BitVector,
    Gf2Matrix,
    PauliOperator,
    RowBasis,
    _anticommute,
    commutes,
    gf2_invert,
    kernel_basis,
    pauli_from_string,
    pivot_step,
    row_reduce,
)

__all__ = [
    "CodeValidationError",
    "MixedLengthsError",
    "NonCommutingGeneratorsError",
    "DependentGeneratorsError",
    "CheckMatrix",
    "Syndrome",
    "SyndromeMatrices",
    "StabilizerCode",
    "StandardForm",
    "CssSplit",
    "validate",
    "syndrome",
    "syndrome_direct",
    "bsm_psm",
    "standard_form",
    "css_split",
    "is_css",
]


class CodeValidationError(ValueError):
    """A generator list does not describe a stabilizer code."""


class MixedLengthsError(CodeValidationError):
    """Generators act on differing qubit counts."""

    def __init__(self, lengths: tuple[int, ...]):
        self.lengths = lengths
        super().__init__(f"generators act on mixed qubit counts {sorted(set(lengths))}")


class NonCommutingGeneratorsError(CodeValidationError):
    """Some generator pairs anticommute; carries every violating 0-based pair."""

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        self.pairs = pairs
        shown = ", ".join(f"({i + 1}, {j + 1})" for i, j in pairs)
        super().__init__(f"anticommuting generator pairs: {shown}")


class DependentGeneratorsError(CodeValidationError):
    """Some generators are products of earlier ones; carries 0-based indices."""

    def __init__(self, rows: tuple[int, ...]):
        self.rows = rows
        shown = ", ".join(str(i + 1) for i in rows)
        super().__init__(f"generators dependent on earlier ones: {shown}")


@dataclass(frozen=True)
class CheckMatrix:
    """Validated (n-k) x 2n check matrix; construction runs the full checks."""

    generators: tuple[PauliOperator, ...]

    def __post_init__(self) -> None:
        gens = self.generators
        if not gens:
            raise CodeValidationError("a code needs at least one generator")
        lengths = tuple(g.n for g in gens)
        if len(set(lengths)) > 1:
            raise MixedLengthsError(lengths)
        masks = [(g.x.bits, g.z.bits) for g in gens]
        bad_pairs = [
            (i, j)
            for i, (ax, az) in enumerate(masks)
            for j, (bx, bz) in enumerate(masks[i + 1 :], i + 1)
            if _anticommute(ax, az, bx, bz)
        ]
        if bad_pairs:
            raise NonCommutingGeneratorsError(tuple(bad_pairs))
        basis = RowBasis()
        dependent = [i for i, r in enumerate(self.h.rows) if not basis.add(r)]
        if dependent:
            raise DependentGeneratorsError(tuple(dependent))

    @property
    def n(self) -> int:
        return self.generators[0].n

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @property
    def k(self) -> int:
        return self.n - self.num_generators

    @cached_property
    def h_x(self) -> Gf2Matrix:
        return Gf2Matrix(self.n, tuple(g.x.bits for g in self.generators))

    @cached_property
    def h_z(self) -> Gf2Matrix:
        return Gf2Matrix(self.n, tuple(g.z.bits for g in self.generators))

    @cached_property
    def h(self) -> Gf2Matrix:
        """Full [H_X | H_Z]: columns 0..n-1 are X columns, n..2n-1 Z columns."""
        n = self.n
        return Gf2Matrix(
            2 * n, tuple(g.x.bits | (g.z.bits << n) for g in self.generators)
        )


def validate(generators: Iterable[PauliOperator | str]) -> CheckMatrix:
    """Build a CheckMatrix from operators or Pauli strings.

    Raises MixedLengthsError, NonCommutingGeneratorsError (listing every
    anticommuting pair) or DependentGeneratorsError (listing every redundant
    row), whichever applies first in that order.
    """
    gens = tuple(
        pauli_from_string(g) if isinstance(g, str) else g for g in generators
    )
    return CheckMatrix(gens)


@dataclass(frozen=True)
class Syndrome:
    """One bit per generator; bit i is 1 when the error anticommutes with it."""

    bits: BitVector

    @property
    def num_generators(self) -> int:
        return self.bits.n

    def is_zero(self) -> bool:
        return self.bits.bits == 0

    def __str__(self) -> str:
        return self.bits.to01()


@dataclass(frozen=True)
class SyndromeMatrices:
    """Syndrome lookup matrices, n x (rows): the n-k checks or the 2k logicals.

    Row i of `bsm` is the syndrome of a single X on qubit i+1 (equivalently
    column i of H_Z); row i of `psm` is the syndrome of a single Z there
    (column i of H_X).  Any error syndrome is x . bsm + z . psm.
    """

    bsm: Gf2Matrix
    psm: Gf2Matrix


@dataclass(frozen=True)
class StabilizerCode:
    """A check matrix plus optional label and designed distance."""

    h: CheckMatrix
    label: str | None = None
    designed_distance: int | None = None

    @classmethod
    def from_strings(
        cls,
        *generators: str,
        label: str | None = None,
        designed_distance: int | None = None,
    ) -> StabilizerCode:
        return cls(validate(generators), label=label, designed_distance=designed_distance)

    @property
    def n(self) -> int:
        return self.h.n

    @property
    def k(self) -> int:
        return self.h.k

    @property
    def num_generators(self) -> int:
        return self.h.num_generators

    @property
    def default_t(self) -> int | None:
        """floor((d-1)/2) when a designed distance is declared."""
        if self.designed_distance is None:
            return None
        return (self.designed_distance - 1) // 2

    @cached_property
    def syndrome_matrices(self) -> SyndromeMatrices:
        return bsm_psm(self)

    @cached_property
    def _logicals(self) -> tuple[int, ...]:
        """2k logical operators (x | z << n) that span the normalizer modulo S.

        The normalizer is the kernel of the syndrome map, whose matrix has
        the rows of bsm and psm as its columns; each kernel vector is reduced
        modulo S and the operators kept so far, and kept when a residue
        remains.  The logicals' products among themselves form an invertible
        matrix, so an operator with zero syndrome is in S exactly when its
        class key (`_class_matrices`) is 0.
        """
        sm = self.syndrome_matrices
        syndrome_map = Gf2Matrix(self.num_generators, sm.bsm.rows + sm.psm.rows)
        basis = RowBasis(self.h.h.rows)
        logicals = []
        for v in kernel_basis(syndrome_map.transpose()):
            residue = basis.reduce(v.bits)
            if basis.add(residue):
                logicals.append(residue)
        return tuple(logicals)

    @cached_property
    def _class_matrices(self) -> SyndromeMatrices:
        """Syndrome matrices of the logicals: row q of `bsm` is the class key of
        X on qubit q, row q of `psm` that of Z, bit j against logical j."""
        n, low = self.n, (1 << self.n) - 1
        return SyndromeMatrices(
            bsm=Gf2Matrix(n, tuple(v >> n for v in self._logicals)).transpose(),
            psm=Gf2Matrix(n, tuple(v & low for v in self._logicals)).transpose(),
        )

    def syndrome_masks(self, x: int, z: int) -> int:
        """Syndrome as an int, from raw (x, z) masks; `syndrome` calls it."""
        sm = self.syndrome_matrices
        return sm.bsm.vec_mat(x) ^ sm.psm.vec_mat(z)

    def in_stabilizer_masks(self, x: int, z: int) -> bool:
        """Membership of (x|z) in S: zero syndrome and zero class key."""
        cm = self._class_matrices
        return not (self.syndrome_masks(x, z) or cm.bsm.vec_mat(x) ^ cm.psm.vec_mat(z))

    def in_stabilizer(self, p: PauliOperator) -> bool:
        self._check_n(p)
        return self.in_stabilizer_masks(p.x.bits, p.z.bits)

    def _check_n(self, p: PauliOperator) -> None:
        if p.n != self.n:
            raise ValueError(f"operator acts on {p.n} qubits, code has {self.n}")


def syndrome(code: StabilizerCode, error: PauliOperator) -> Syndrome:
    """Syndrome via the closed form x . H_Z^T + z . H_X^T."""
    code._check_n(error)
    s = code.syndrome_masks(error.x.bits, error.z.bits)
    return Syndrome(BitVector(code.num_generators, s))


def syndrome_direct(code: StabilizerCode, error: PauliOperator) -> Syndrome:
    """Syndrome by testing commutation against each generator in turn.

    Same value as `syndrome` by construction; kept as an independent route.
    """
    code._check_n(error)
    bits = 0
    for i, g in enumerate(code.h.generators):
        if not commutes(error, g):
            bits |= 1 << i
    return Syndrome(BitVector(code.num_generators, bits))


def bsm_psm(code: StabilizerCode) -> SyndromeMatrices:
    """Bit-flip and phase-flip syndrome matrices H_Z^T and H_X^T."""
    return SyndromeMatrices(bsm=code.h.h_z.transpose(), psm=code.h.h_x.transpose())


@dataclass(frozen=True)
class StandardForm:
    """Row-reduced standard form of a check matrix.

    The assembled matrix acts on permuted qubits and has the block layout

        [ I  A1  A2 | B  0  C ]      r rows
        [ 0  0   0  | D  I  E ]      n-k-r rows

    with column widths r, n-k-r, k in each half and r = rank(H_X).  The
    reduction is fully replayable: `row_transform` is invertible and
    row_transform @ (column-permuted input) == matrix, where position j of
    the permuted matrix holds original qubit qubit_permutation[j] (0-based;
    the X and Z halves are permuted together).
    """

    n: int
    k: int
    r: int
    matrix: Gf2Matrix
    qubit_permutation: tuple[int, ...]
    row_transform: Gf2Matrix

    def _x_block(self, rows: range, col_lo: int, col_hi: int) -> Gf2Matrix:
        sub = [
            (self.matrix.rows[i] >> col_lo) & ((1 << (col_hi - col_lo)) - 1)
            for i in rows
        ]
        return Gf2Matrix(col_hi - col_lo, tuple(sub))

    def _z_block(self, rows: range, col_lo: int, col_hi: int) -> Gf2Matrix:
        return self._x_block(rows, self.n + col_lo, self.n + col_hi)

    @property
    def a1(self) -> Gf2Matrix:
        """X half, top rows, middle n-k-r columns."""
        return self._x_block(range(self.r), self.r, self.n - self.k)

    @property
    def a2(self) -> Gf2Matrix:
        """X half, top rows, last k columns."""
        return self._x_block(range(self.r), self.n - self.k, self.n)

    @property
    def b(self) -> Gf2Matrix:
        """Z half, top rows, first r columns."""
        return self._z_block(range(self.r), 0, self.r)

    @property
    def c(self) -> Gf2Matrix:
        """Z half, top rows, last k columns."""
        return self._z_block(range(self.r), self.n - self.k, self.n)

    @property
    def d(self) -> Gf2Matrix:
        """Z half, bottom rows, first r columns."""
        m = self.n - self.k
        return self._z_block(range(self.r, m), 0, self.r)

    @property
    def e(self) -> Gf2Matrix:
        """Z half, bottom rows, last k columns."""
        m = self.n - self.k
        return self._z_block(range(self.r, m), self.n - self.k, self.n)

    def original_matrix(self) -> Gf2Matrix:
        """Undo the reduction; returns the [H_X | H_Z] that was reduced."""
        unreduced = gf2_invert(self.row_transform) @ self.matrix
        inverse_perm = [0] * self.n
        for pos, orig in enumerate(self.qubit_permutation):
            inverse_perm[orig] = pos
        rows = []
        for row in unreduced.rows:
            out = 0
            for orig in range(self.n):
                pos = inverse_perm[orig]
                out |= ((row >> pos) & 1) << orig
                out |= ((row >> (self.n + pos)) & 1) << (self.n + orig)
            rows.append(out)
        return Gf2Matrix(2 * self.n, tuple(rows))


def standard_form(code: StabilizerCode) -> StandardForm:
    """Reduce the check matrix to standard form.

    Row operations and qubit (paired-column) swaps only, so the result
    generates the same code up to qubit relabeling.  Always succeeds.
    """
    n = code.n
    m = code.num_generators
    rows = list(code.h.h.rows)
    tags = [1 << i for i in range(m)]
    perm = list(range(n))

    def swap_qubits(j1: int, j2: int) -> None:
        perm[j1], perm[j2] = perm[j2], perm[j1]
        for i, row in enumerate(rows):
            # bits 0 and n of `flip` mark where the X and Z bits differ
            flip = ((row >> j1) ^ (row >> j2)) & (1 | 1 << n)
            rows[i] = row ^ (flip << j1) ^ (flip << j2)

    def place(half: int, target: int) -> bool:
        """Pivot qubit `target` of `half` (0: X, n: Z) at row `target`.

        The lowest qubit >= target with a 1 there in rows >= target is
        swapped in first; False when there is none.
        """
        below = 0
        for row in rows[target:]:
            below |= row
        free = (below >> (half + target)) & ((1 << (n - target)) - 1)
        if not free:
            return False
        swap_qubits(target, target + (free & -free).bit_length() - 1)
        pivot_step(rows, tags, half + target, target)
        return True

    # Stage 1: bring the X half to [I A1 A2] with qubit swaps feeding pivots.
    r = 0
    while r < min(n, m) and place(0, r):
        r += 1

    # Stage 2: rows below r have zero X half; bring their Z block on the last
    # n-r qubits to [D I E].  Full elimination also zeroes the middle Z block
    # of the top rows, which is the 0 in [B 0 C].
    for target in range(r, m):
        if not place(n, target):
            # Cannot happen for a valid check matrix: the bottom rows are
            # independent and supported on the last n-r Z columns only.
            raise AssertionError("rank deficit in the lower Z block")

    return StandardForm(
        n=n,
        k=code.k,
        r=r,
        matrix=Gf2Matrix(2 * n, tuple(rows)),
        qubit_permutation=tuple(perm),
        row_transform=Gf2Matrix(m, tuple(tags)),
    )


@dataclass(frozen=True)
class CssSplit:
    """CSS witness: row spaces of pure-X and pure-Z generators."""

    x_block: Gf2Matrix
    z_block: Gf2Matrix


def css_split(code: StabilizerCode) -> CssSplit | None:
    """CSS detection up to row equivalence.

    The RREF of a row space is unique, and for a CSS-decomposable space it
    consists of pure rows; so reduce and test each row for pure type.
    Returns the X/Z blocks on success, None otherwise.
    """
    n = code.n
    red = row_reduce(code.h.h)
    x_rows = []
    z_rows = []
    for row in red.reduced.rows[: red.rank]:
        x_part = row & ((1 << n) - 1)
        z_part = row >> n
        if z_part == 0:
            x_rows.append(x_part)
        elif x_part == 0:
            z_rows.append(z_part)
        else:
            return None
    return CssSplit(
        x_block=Gf2Matrix(n, tuple(x_rows)),
        z_block=Gf2Matrix(n, tuple(z_rows)),
    )


def is_css(code: StabilizerCode) -> bool:
    return css_split(code) is not None
