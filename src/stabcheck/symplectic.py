"""Binary symplectic encoding of phaseless Pauli operators and GF(2) linear algebra.

An n-qubit Pauli operator, with its global phase discarded, is encoded as a
pair of length-n bit vectors (x | z): bit j of x is set when the factor on
qubit j is X or Y, bit j of z is set when it is Z or Y.  So X -> (1|0),
Z -> (0|1), Y -> (1|1), I -> (0|0).  Qubit j lives in bit j of the backing
integers, and the leftmost character of a Pauli string is qubit 1 (bit 0).

Two operators commute exactly when the symplectic product
x_a.z_b + z_a.x_b vanishes mod 2, and the phaseless product of two
operators is the XOR of their encodings.

Bit vectors and matrices here are plain Python integers used as bitsets:
a matrix row is one int, bit j = column j.  That keeps rank / kernel /
subset-independence loops allocation-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

__all__ = [
    "BitVector",
    "PauliOperator",
    "PauliParseError",
    "Gf2Matrix",
    "RowReduction",
    "RowBasis",
    "SubsetSearch",
    "pauli_from_string",
    "pauli_to_string",
    "symplectic_weight",
    "commutes",
    "pauli_product",
    "row_reduce",
    "gf2_invert",
    "kernel_basis",
    "smallest_dependent_subset",
    "ALL_INDEPENDENT",
    "DEPENDENT_FOUND",
    "BUDGET_EXHAUSTED",
    "DEFAULT_BUDGET",
]


@dataclass(frozen=True)
class BitVector:
    """Length-n bit vector; bit j of `bits` is coordinate j."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"negative length {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bits 0x{self.bits:x} do not fit in {self.n} coordinates")

    @classmethod
    def from01(cls, text: str) -> BitVector:
        """Parse a 0/1 string; the leftmost character is coordinate 0."""
        bits = 0
        for j, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << j
            elif ch != "0":
                raise ValueError(f"unexpected character {ch!r} at position {j + 1}")
        return cls(len(text), bits)

    def get(self, j: int) -> int:
        if not 0 <= j < self.n:
            raise ValueError(f"index {j} out of range for length {self.n}")
        return (self.bits >> j) & 1

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def dot(self, other: BitVector) -> int:
        """Inner product mod 2."""
        self._check_len(other)
        return (self.bits & other.bits).bit_count() & 1

    def __xor__(self, other: BitVector) -> BitVector:
        self._check_len(other)
        return BitVector(self.n, self.bits ^ other.bits)

    def to01(self) -> str:
        return "".join("1" if (self.bits >> j) & 1 else "0" for j in range(self.n))

    def __str__(self) -> str:
        return self.to01()

    def _check_len(self, other: BitVector) -> None:
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")


@dataclass(frozen=True)
class PauliOperator:
    """Phaseless n-qubit Pauli operator as its (x | z) pair of bit vectors."""

    x: BitVector
    z: BitVector

    def __post_init__(self) -> None:
        if self.x.n != self.z.n:
            raise ValueError(f"half lengths differ: {self.x.n} vs {self.z.n}")

    @classmethod
    def identity(cls, n: int) -> PauliOperator:
        return cls.from_masks(n, 0, 0)

    @classmethod
    def from_masks(cls, n: int, x: int, z: int) -> PauliOperator:
        return cls(BitVector(n, x), BitVector(n, z))

    @property
    def n(self) -> int:
        return self.x.n

    @property
    def weight(self) -> int:
        return symplectic_weight(self)

    @property
    def is_identity(self) -> bool:
        return self.x.bits == 0 and self.z.bits == 0

    def __mul__(self, other: PauliOperator) -> PauliOperator:
        return pauli_product(self, other)

    def __str__(self) -> str:
        return pauli_to_string(self)


class PauliParseError(ValueError):
    """Raised on malformed Pauli strings; carries the 1-based offending position.

    `reason` is the message without the position, for callers that report
    the place themselves.
    """

    def __init__(
        self, message: str, position: int | None = None, reason: str | None = None
    ):
        super().__init__(message)
        self.position = position
        self.reason = message if reason is None else reason


_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_PHASE_TOKENS = ("+i", "-i", "+", "-", "i")


def pauli_from_string(text: str) -> PauliOperator:
    """Parse a Pauli string of I/X/Y/Z letters.

    A single leading phase token (+, -, i, +i, -i) is accepted and discarded;
    phases carry no information at the symplectic level.  The leftmost letter
    is qubit 1.  Anything else raises PauliParseError naming the 1-based
    position in the original string.
    """
    offset = 0
    for tok in _PHASE_TOKENS:
        if text.startswith(tok):
            offset = len(tok)
            break
    body = text[offset:]
    if not body:
        raise PauliParseError("empty Pauli string", position=offset + 1)
    x = 0
    z = 0
    for j, ch in enumerate(body):
        pair = _LETTER_TO_XZ.get(ch)
        if pair is None:
            pos = offset + j + 1
            reason = f"unexpected character {ch!r}"
            raise PauliParseError(
                f"{reason} at position {pos}", position=pos, reason=reason
            )
        x |= pair[0] << j
        z |= pair[1] << j
    return PauliOperator.from_masks(len(body), x, z)


def pauli_to_string(p: PauliOperator) -> str:
    """Render as bare I/X/Y/Z letters (no phase); inverse of pauli_from_string."""
    xb, zb = p.x.bits, p.z.bits
    return "".join(
        _XZ_TO_LETTER[((xb >> j) & 1, (zb >> j) & 1)] for j in range(p.n)
    )


def symplectic_weight(p: PauliOperator) -> int:
    """Number of qubits acted on non-trivially: w(x) + w(z) - w(x AND z)."""
    return (p.x.bits | p.z.bits).bit_count()


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """True when the symplectic product x_a.z_b + z_a.x_b vanishes mod 2."""
    return a.x.dot(b.z) ^ a.z.dot(b.x) == 0


def pauli_product(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Phaseless product; XOR of the symplectic vectors."""
    return PauliOperator(a.x ^ b.x, a.z ^ b.z)


@dataclass(frozen=True)
class Gf2Matrix:
    """Matrix over GF(2); each row is an int with bit j = column j."""

    cols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.cols < 0:
            raise ValueError(f"negative column count {self.cols}")
        for i, r in enumerate(self.rows):
            if r < 0 or r >> self.cols:
                raise ValueError(f"row {i} does not fit in {self.cols} columns")

    @classmethod
    def from01(cls, rows: Sequence[str]) -> Gf2Matrix:
        if not rows:
            raise ValueError("no rows given; column count would be ambiguous")
        vecs = [BitVector.from01(r) for r in rows]
        cols = vecs[0].n
        for i, v in enumerate(vecs):
            if v.n != cols:
                raise ValueError(f"row {i} has length {v.n}, expected {cols}")
        return cls(cols, tuple(v.bits for v in vecs))

    @classmethod
    def identity(cls, n: int) -> Gf2Matrix:
        return cls(n, tuple(1 << j for j in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def column(self, j: int) -> int:
        """Column j as an int with bit i = row i."""
        if not 0 <= j < self.cols:
            raise ValueError(f"column {j} out of range")
        out = 0
        for i, r in enumerate(self.rows):
            out |= ((r >> j) & 1) << i
        return out

    def columns(self) -> list[int]:
        """Every column, as `column` gives it, from one pass over the rows'
        set bits."""
        cols = [0] * self.cols
        for i, r in enumerate(self.rows):
            bit = 1 << i
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= bit
                r ^= low
        return cols

    def transpose(self) -> Gf2Matrix:
        return Gf2Matrix(self.nrows, tuple(self.columns()))

    def vec_mat(self, v: int) -> int:
        """Product of a row vector (int over nrows) with this matrix."""
        rows = self.rows
        out = 0
        while v:
            low = v & -v  # visit set bits only
            out ^= rows[low.bit_length() - 1]
            v ^= low
        return out

    def __matmul__(self, other: Gf2Matrix) -> Gf2Matrix:
        if self.cols != other.nrows:
            raise ValueError(f"shape mismatch: {self.cols} cols vs {other.nrows} rows")
        return Gf2Matrix(other.cols, tuple(other.vec_mat(r) for r in self.rows))

    def to01(self) -> list[str]:
        return [BitVector(self.cols, r).to01() for r in self.rows]


@dataclass(frozen=True)
class RowReduction:
    """Result of Gaussian elimination to reduced row echelon form.

    `transform` is an invertible nrows x nrows matrix with
    transform @ input == reduced, so the record replays (and, inverted,
    undoes) the reduction.
    """

    reduced: Gf2Matrix
    rank: int
    pivot_cols: tuple[int, ...]
    transform: Gf2Matrix


def pivot_step(rows: list[int], tags: list[int], col: int, start: int) -> bool:
    """Pivot on `col` at row `start`, in place; False when no row can.

    The first row at or below `start` with a 1 in `col` moves up to `start`
    and is cleared from every other row; `tags` (rows of the transform)
    follow along.
    """
    for sel in range(start, len(rows)):
        if (rows[sel] >> col) & 1:
            break
    else:
        return False
    rows[start], rows[sel] = rows[sel], rows[start]
    tags[start], tags[sel] = tags[sel], tags[start]
    pivot, tag = rows[start], tags[start]
    for i in range(len(rows)):
        if i != start and (rows[i] >> col) & 1:
            rows[i] ^= pivot
            tags[i] ^= tag
    return True


def row_reduce(m: Gf2Matrix) -> RowReduction:
    """Reduced row echelon form over GF(2); zero rows sink to the bottom."""
    work = list(m.rows)
    tags = [1 << i for i in range(len(work))]  # rows of the transform
    pivots: list[int] = []
    for col in range(m.cols):
        if pivot_step(work, tags, col, len(pivots)):
            pivots.append(col)
    rank = len(pivots)
    return RowReduction(
        reduced=Gf2Matrix(m.cols, tuple(work)),
        rank=rank,
        pivot_cols=tuple(pivots),
        transform=Gf2Matrix(len(work), tuple(tags)),
    )


def gf2_invert(m: Gf2Matrix) -> Gf2Matrix:
    """Inverse of a square invertible matrix."""
    if m.nrows != m.cols:
        raise ValueError(f"not square: {m.nrows} x {m.cols}")
    red = row_reduce(m)
    if red.rank != m.cols:
        raise ValueError("matrix is singular")
    return red.transform


def kernel_basis(m: Gf2Matrix) -> tuple[BitVector, ...]:
    """Basis of {v : m @ v = 0}: column j is pushed tagged e_j, so a column f
    spanned by earlier ones leaves the vector the RREF builds for free column f."""
    basis = RowBasis()
    for j, col in enumerate(m.columns()):
        basis.push(col, 1 << j)
    return tuple(BitVector(m.cols, v) for v in basis.kernel)


class RowBasis:
    """Incremental GF(2) row space: add or push vectors, reduce, test membership.

    `push` eliminates a tag along with its vector; one that reduces to 0 leaves
    its tag on `kernel`.  `pop` undoes the last push; `add` tags nothing."""

    def __init__(self, rows: Iterable[int] = ()):
        self._pivot_rows: dict[int, int] = {}
        self._tags: dict[int, int] = {}
        self.kernel: list[int] = []
        for r in rows:
            self.add(r)

    def reduce(self, v: int) -> int:
        """Residue of v after elimination against the stored pivot rows."""
        pivot_rows = self._pivot_rows
        while v:
            row = pivot_rows.get(v.bit_length() - 1)
            if row is None:
                return v
            v ^= row
        return 0

    def push(self, v: int, tag: int) -> int | None:
        """Insert v tagged `tag`; returns its pivot key, None for a kernel tag."""
        pivot_rows, tags = self._pivot_rows, self._tags
        while v:
            key = v.bit_length() - 1
            row = pivot_rows.get(key)
            if row is None:
                pivot_rows[key] = v
                tags[key] = tag
                return key
            v ^= row
            tag ^= tags[key]
        self.kernel.append(tag)
        return None

    def pop(self, key: int | None) -> None:
        """Undo the last push not yet undone, given the key it returned."""
        if key is None:
            self.kernel.pop()
        else:
            # its tag stays: push writes a tag wherever it writes a row
            del self._pivot_rows[key]

    def add(self, v: int) -> bool:
        """Insert v; returns True when v was independent of the basis."""
        v = self.reduce(v)
        # a reduced nonzero v is stored at its leading bit at once
        return v != 0 and self.push(v, 0) is not None

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def __len__(self) -> int:
        return len(self._pivot_rows)


ALL_INDEPENDENT = "all_independent"
DEPENDENT_FOUND = "dependent_found"
BUDGET_EXHAUSTED = "budget_exhausted"

DEFAULT_BUDGET = 10**7

# most pairs of the one complete pair map `smallest_dependent_subset` builds
_PAIR_CAP = 1 << 18


@dataclass(frozen=True)
class SubsetSearch:
    """Outcome of a bounded search for a dependent column subset.

    `dependent` is None unless outcome == "dependent_found"; when set it is a
    minimal dependent subset (every proper subset is independent), sorted
    ascending.  `visited` counts column insertions, the quantity capped by
    the budget; the lookups that stand in for the last two DFS levels and
    for size 1, and the sizes settled from the map of every pair, count the
    insertions their loops would have made.  `verified` is the largest size
    whose subsets were all found independent: max_size when all_independent,
    one less than the witness size when dependent_found, and the last size
    searched to the end when the budget ran out.
    """

    outcome: str
    dependent: tuple[int, ...] | None
    visited: int
    verified: int


def smallest_dependent_subset(
    m: Gf2Matrix, max_size: int, *, budget: int = DEFAULT_BUDGET
) -> SubsetSearch:
    """Search all column subsets of size <= max_size for a dependent one.

    Subsets are enumerated size by size, each size in colex order, so the
    first hit is a smallest dependent subset; because every smaller size was
    exhausted first, a hit is always minimal (a circuit).  Supersets of
    dependent subsets are never visited.  Returns "budget_exhausted" instead
    of a verdict once `visited` would pass the budget, so `visited` never
    exceeds it.  A negative budget is rejected; a zero budget stops before
    the first visit.

    No residue is taken.  With every smaller size free of circuits, s chosen
    columns close a circuit only if the XOR of all of them is 0: the XOR of
    a proper subset is never 0.  So the DFS carries one int down, the XOR
    `acc` of the columns chosen so far, and the last two levels go by
    lookup: they stop at the colex-first pair (c, j), j < c, below their
    bound with cols[c] ^ cols[j] == acc.  Once a map from each pair's XOR
    to its colex-first pair exists, one lookup there answers this; until
    then each column c takes one lookup of acc ^ cols[c] in a map from
    column value to first index, and size 1 one lookup of the zero column
    there.  `visited` still counts the column insertions that the loops
    would make, and a budget stop falls where theirs would.

    Circuit-free sizes 3 and 4 are settled from the pair map, with no DFS:
    with no smaller circuit, a 3-circuit is a pair whose XOR is a column
    and a 4-circuit two pairs with one XOR.  A settled level is still
    charged the visits of its DFS, sum_{j=1..s} C(N - s + j, j) over N
    columns.  Settling needs the whole level to fit the remaining budget and
    all C(N, 2) pairs to fit `_PAIR_CAP`; only then are all pairs mapped,
    once, and later levels read the map.  A level that holds a circuit, or
    fails either test, runs the DFS, which alone finds witnesses and budget
    stops.
    """
    if budget < 0:
        raise ValueError(f"negative budget {budget}")
    if max_size < 0:
        raise ValueError(f"negative subset size {max_size}")
    if max_size > m.cols:
        raise ValueError(f"subset size {max_size} exceeds {m.cols} columns")
    cols = m.columns()
    ncols = m.cols
    # cols[c] ^ cols[j] -> c * ncols + j for the colex-first pair j < c with
    # that XOR; integer order is colex order.  Empty, or every pair.
    pairs: dict[int, int] = {}
    first: dict[int, int] = {}
    for j, col in enumerate(cols):
        first.setdefault(col, j)
    visited = 0

    def settled(size: int) -> bool:
        # Every smaller size is circuit-free, so the columns are distinct and
        # nonzero: no pair's XOR is 0 or one of its own columns, and two
        # pairs with one XOR are disjoint.
        nonlocal visited
        steps, npairs = _level_steps(ncols, size), comb(ncols, 2)
        if steps > budget - visited or npairs > _PAIR_CAP:
            return False
        if not pairs:
            for c, col in enumerate(cols):
                for j in range(c):
                    pairs.setdefault(col ^ cols[j], c * ncols + j)
        if size == 3:
            circuit = not pairs.keys().isdisjoint(first)  # `first` keys the columns
        else:
            circuit = len(pairs) < npairs
        if circuit:
            return False
        visited += steps
        return True

    def last_two(bound: int, acc: int) -> tuple[int, ...] | None:
        # Under column c (c < bound) the last level's loop would stop at the
        # first j < c with cols[c] ^ cols[j] in the span of the chosen columns.
        # With every smaller size circuit-free, that XOR can only be `acc`,
        # the XOR of all of them (a proper subset's would close a smaller
        # circuit), so the hit is the colex-first pair (c, j) with that XOR.
        # Finishing column c costs 1 + c visits, a hit at (c, j) j + 2.  The
        # scan does not watch the budget: a hit past it, or none, costs more
        # than is left and stops the search where the loops would.
        nonlocal visited
        end = bound * ncols
        if pairs:
            hit = pairs.get(acc, end)
        else:
            hit = end
            for c in range(bound):
                # the first column equal to acc ^ cols[c]
                j = first.get(acc ^ cols[c], c)
                if j < c:
                    hit = c * ncols + j
                    break
        if hit < end:
            c, j = divmod(hit, ncols)
            steps, found = _steps(c) + j + 2, (j, c)
        else:
            steps, found = _steps(bound), None
        if steps > budget - visited:
            visited = budget
            raise _BudgetExhausted
        visited += steps
        return found

    def by_lookup(bound: int, depth: int, acc: int) -> tuple[int, ...] | None:
        # Colex DFS: choose the largest column first and iterate it
        # ascending, so subsets complete in colex order and the first hit is
        # the colex-least circuit of this size.  `acc` is the XOR of the
        # columns chosen above; no residue is taken, because no subset of
        # them can be dependent before the last level.  A hit comes back
        # ascending, each column below the one chosen above it.
        nonlocal visited
        for c in range(depth - 1, bound):
            if visited >= budget:
                raise _BudgetExhausted
            visited += 1
            if depth > 3:
                hit = by_lookup(c, depth - 1, acc ^ cols[c])
            else:
                hit = last_two(c, acc ^ cols[c])
            if hit is not None:
                return hit + (c,)
        return None

    def search_level(size: int) -> tuple[int, ...] | None:
        nonlocal visited
        if size == 1:
            # the first size: visit the columns up to the first zero one
            j = first.get(0, ncols)
            visited = min(j + 1, ncols)
            if visited > budget:
                visited = budget
                raise _BudgetExhausted
            return (j,) if j < ncols else None
        if size == 2:
            return last_two(ncols, 0)
        if size in (3, 4) and settled(size):
            return None
        return by_lookup(ncols, size, 0)

    verified = 0
    try:
        for size in range(1, max_size + 1):
            hit = search_level(size)
            if hit is not None:
                return SubsetSearch(DEPENDENT_FOUND, hit, visited, verified)
            verified = size
    except _BudgetExhausted:
        return SubsetSearch(BUDGET_EXHAUSTED, None, visited, verified)
    return SubsetSearch(ALL_INDEPENDENT, None, visited, verified)


def _steps(c: int) -> int:
    """Visits of the last two DFS levels over columns 1..c-1 with no hit."""
    return (c - 1) * (c + 2) // 2


def _level_steps(n: int, size: int) -> int:
    """Visits of a circuit-free DFS level of `size` over n columns.

    The sum over j = 1..size of C(n - size + j, j), which telescopes to
    C(n + 1, size) - 1; `_steps(c)` is size 2 over c columns.
    """
    return comb(n + 1, size) - 1


class _BudgetExhausted(Exception):
    pass
