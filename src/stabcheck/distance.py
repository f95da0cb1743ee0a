"""Minimum distance by exhaustive search, plus column-independence bounds.

The distance of a stabilizer code is the least symplectic weight over the
operators that commute with every generator (zero syndrome) but are not
stabilizer elements (nonzero class key).  `column_bounds` derives distance
bounds from the largest m such that every m-subset of check-matrix columns
is independent, without enumerating errors.  `min_distance` searches weight
levels ascending from that lower bound, since no level below it can hold a
zero-syndrome operator, so the first hit is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .degeneracy import Verdict, _check_t, classify
from .stabilizer import StabilizerCode, css_split
from .symplectic import (
    ALL_INDEPENDENT,
    BUDGET_EXHAUSTED,
    DEFAULT_BUDGET,
    Gf2Matrix,
    PauliOperator,
    RowBasis,
    row_reduce,
    smallest_dependent_subset,
)

__all__ = [
    "DistanceResult",
    "ColumnBounds",
    "min_distance",
    "column_bounds",
    "max_independence_order",
]


@dataclass(frozen=True)
class DistanceResult:
    """d is None when the search limit was exhausted without a hit.

    `witness` is the first zero-syndrome non-stabilizer operator found, so it
    has weight d.  lower/upper come from `column_bounds` (upper only when a
    `t` was supplied and the bound applies; see there).
    """

    d: int | None
    witness: PauliOperator | None
    lower: int
    upper: int | None
    max_independence_order: int
    search_limit: int
    budget_exhausted: bool


@dataclass(frozen=True)
class ColumnBounds:
    """Distance bounds from column independence alone.

    max_independence_order M is the largest m such that every m-subset of
    [H_X|H_Z] columns is independent.  The always-valid lower bound is
    2*floor(M/4)+1.  The upper bound 4t+1 is attached only when the code is
    nondegenerate at t and M <= 4t (so a dependent set of at most 4t+1
    columns exists, which is what the bound's argument consumes).  For CSS
    codes whose blocks have every 2t-subset independent and some (2t+1)-subset
    dependent, nondegeneracy pins the distance exactly at 2t+1; then
    lower == upper == exact.

    Both upper and exact presuppose that logical operators exist, so neither
    is attached when k = 0 (a stabilizer state has no distance to bound).
    """

    t: int
    max_independence_order: int
    lower: int
    upper: int | None
    exact: int | None
    block_orders: tuple[int, int] | None
    budget_exhausted: bool


def max_independence_order(
    m: Gf2Matrix, *, budget: int = DEFAULT_BUDGET
) -> tuple[int, bool]:
    """Largest m such that every m-subset of columns is independent.

    Returns (order, budget_exhausted).  On exhaustion the order is the
    largest size fully verified, a valid lower bound for the true order.
    The rank comes from one elimination of `m`; `column_bounds` and
    `min_distance` skip it, since they know the ranks of their matrices.
    """
    return _independence_order(m, row_reduce(m).rank, budget)


def _independence_order(m: Gf2Matrix, rank: int, budget: int) -> tuple[int, bool]:
    """`max_independence_order` of `m`, given its rank."""
    if budget < 0:
        raise ValueError(f"negative budget {budget}")
    if rank == m.cols:
        return m.cols, False
    search = smallest_dependent_subset(m, rank + 1, budget=budget)
    # rank < cols guarantees some (rank+1)-subset is dependent, so the search
    # cannot come back all_independent; only the budget stops it.
    assert search.outcome != ALL_INDEPENDENT
    return search.verified, search.outcome == BUDGET_EXHAUSTED


def column_bounds(
    code: StabilizerCode, t: int, *, budget: int = DEFAULT_BUDGET
) -> ColumnBounds:
    """Distance bounds from column independence of the check matrix.

    No search eliminates its matrix for a rank: the check matrix has rank
    n - k, since `CheckMatrix` refuses dependent generators, and each CSS
    block is rows of one reduced echelon form, so its rank is its row count.
    The one elimination is `css_split`'s own.
    """
    _check_t(code.n, t)
    order, exhausted = _independence_order(code.h.h, code.num_generators, budget)
    lower = 2 * (order // 4) + 1
    upper: int | None = None
    exact: int | None = None
    block_orders: tuple[int, int] | None = None
    css_verdict: bool | None = None
    blocks_exhausted = False

    encodes = code.k >= 1
    split = css_split(code)
    if split is not None:
        x, z = split.x_block, split.z_block
        x_order, x_exh = _independence_order(x, x.nrows, budget)
        z_order, z_exh = (
            (x_order, x_exh)  # equal blocks give the same search
            if z == x
            else _independence_order(z, z.nrows, budget)
        )
        block_orders = (x_order, z_order)
        blocks_exhausted = x_exh or z_exh
        if not blocks_exhausted:
            # the exact criterion of `css_nondegeneracy`
            css_verdict = all(
                o >= min(2 * t, b.cols)
                for o, b in ((x_order, x), (z_order, z))
            )
            # With k >= 1 each block has fewer rows than columns, so both
            # orders come from searches that found a dependent subset:
            # min(x, z) >= 2t is then the CSS criterion at t, and == 2t adds
            # a dependent (2t+1)-subset.
            if encodes and min(x_order, z_order) == 2 * t:
                exact = 2 * t + 1

    if exact is not None:
        lower = upper = exact
    elif encodes and order <= 4 * t and not exhausted and _nondegenerate(
        code, t, order, css_verdict
    ):
        upper = 4 * t + 1

    return ColumnBounds(
        t=t,
        max_independence_order=order,
        lower=lower,
        upper=upper,
        exact=exact,
        block_orders=block_orders,
        budget_exhausted=exhausted or blocks_exhausted,
    )


def _nondegenerate(
    code: StabilizerCode, t: int, order: int, css_verdict: bool | None
) -> bool:
    """Nondegeneracy at t, from the independence orders where they settle it.

    `order` must come from a full-matrix search run to the end, and
    `css_verdict` is the CSS block criterion (None when it does not apply).
    Every 4t columns independent proves nondegeneracy; a dependent set of at
    most 2t columns proves degeneracy.  Anything else takes `classify`.
    """
    if css_verdict is not None:
        return css_verdict
    if order >= 4 * t:
        return True
    if order < 2 * t:
        return False
    return classify(code, t).verdict is Verdict.NONDEGENERATE


def _first_logical(code: StabilizerCode, w: int) -> tuple[int, int] | None:
    """(x, z) masks of the first weight-w logical, or None when there is none.

    A Pauli on support S has zero syndrome exactly when its X and Z bits pick
    a dependent set of the 2|S| syndrome columns of S (rows of bsm and psm),
    so a support needs its kernel, not all 3^w letter patterns.  Supports run
    in colex order by the DFS of `smallest_dependent_subset`; each column is
    pushed on one `RowBasis` tagged with its operator mask (x | z << n) and,
    above bit 2n, its row of `code._class_matrices`, its `kernel` holds the
    support's kernel, and backtracking pops both columns.  On the first
    support whose span holds a non-stabilizer (class bits not 0) using every
    qubit of S, the lex-least letter pattern (X < Y < Z, lowest qubit most
    significant) is returned: the operator that colex supports with lex
    letters meet first.
    """
    n = code.n
    low = (1 << n) - 1
    sm, cm = code.syndrome_matrices, code._class_matrices
    basis = RowBasis()

    def best_on(support: int) -> tuple[int, int] | None:
        span = [0]
        for v in basis.kernel:
            span += [u ^ v for u in span]
        qubits = [q for q in range(n) if support >> q & 1]
        best = None
        for v in span:
            x, z = v & low, v >> n & low
            if x | z != support or not v >> 2 * n:
                continue
            # letter index X=0, Y=1, Z=2 is z + 1 - x on each qubit
            key = [(z >> q & 1) + 1 - (x >> q & 1) for q in qubits]
            if best is None or key < best[0]:
                best = (key, (x, z))
        return None if best is None else best[1]

    def extend(bound: int, depth: int, support: int) -> tuple[int, int] | None:
        for q in range(depth - 1, bound):
            kx = basis.push(sm.bsm.rows[q], 1 << q | cm.bsm.rows[q] << 2 * n)
            kz = basis.push(sm.psm.rows[q], 1 << (n + q) | cm.psm.rows[q] << 2 * n)
            if depth > 1:
                hit = extend(q, depth - 1, support | 1 << q)
            else:
                hit = best_on(support | 1 << q) if basis.kernel else None
            basis.pop(kz)
            basis.pop(kx)
            if hit is not None:
                return hit
        return None

    return extend(n, w, 0)


def min_distance(
    code: StabilizerCode,
    search_limit: int | None = None,
    *,
    t: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> DistanceResult:
    """Exhaustive minimum-distance search up to `search_limit` (default n).

    Weight levels ascend from the column lower bound, so the first operator
    with zero syndrome and a nonzero class key is a minimum-weight logical
    and d is exact.  No level below the bound needs a search:

    - a weight-w operator with zero syndrome is a dependent set of at most
      2w columns of [H_X|H_Z] (its x and z bits);
    - with every M-subset independent, no w <= floor(M/2) holds one,
      stabilizer elements included, so no w below 2*floor(M/4)+1 does;
    - M is a verified floor under any budget, so the bound holds under any
      budget too;
    - when `exact` is set, both CSS blocks have every 2t-subset independent,
      so the x and z parts of a nonzero zero-syndrome operator each have
      weight 0 or at least 2t+1, and d >= 2t+1.

    Column bounds are attached to the result; the 4t+1 upper bound needs a
    `t` and is omitted otherwise.  Codes with k=0 have no logical operators,
    so they get d=None without a search.
    """
    n = code.n
    limit = n if search_limit is None else search_limit
    if not 0 <= limit <= n:
        raise ValueError(f"search limit {limit} outside 0..{n}")

    if t is not None:
        bounds = column_bounds(code, t, budget=budget)
        lower, upper = bounds.lower, bounds.upper
        order, exhausted = bounds.max_independence_order, bounds.budget_exhausted
    else:
        order, exhausted = _independence_order(
            code.h.h, code.num_generators, budget
        )
        lower, upper = 2 * (order // 4) + 1, None

    d: int | None = None
    witness: PauliOperator | None = None
    if code.k >= 1:  # a stabilizer state has no logical operators
        for w in range(max(1, lower), limit + 1):
            hit = _first_logical(code, w)
            if hit is not None:
                d = w
                witness = PauliOperator.from_masks(n, *hit)
                break

    return DistanceResult(
        d=d,
        witness=witness,
        lower=lower,
        upper=upper,
        max_independence_order=order,
        search_limit=limit,
        budget_exhausted=exhausted,
    )
