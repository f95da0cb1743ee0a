"""Deliberately naive reimplementations used as independent test oracles.

Everything here works on letter strings, tuples and sets instead of packed
integers, so a bug in the library's bit tricks cannot hide in both routes.
Only suitable for small instances; that is the point.  The two exceptions
are `trial_failures` and its count `simulate_failures`, which draw their
errors with the library's per-trial reference sampler, the stream that the
batched sampler must reproduce;
`table_fill`, the one-error-at-a-time decoder table fill that the chunked
numpy fill of `build_table` must reproduce entry for entry;
`subset_search_dfs`, the column-by-column subset search whose every field
`smallest_dependent_subset` must reproduce; `column_bounds_by_classify`,
the `column_bounds` that asks `classify` for nondegeneracy every time; and
`kernel_basis_rref`, the kernel read off the reduced row echelon form, whose
vectors and order `kernel_basis` must reproduce.
`weight_enumerators` answers distance and degeneracy from weight counts
alone, through the quantum MacWilliams identity.  `relabel` makes a new code
with the same distance, verdicts and weight enumerators as a known one.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

from stabcheck import (
    ColumnBounds,
    PauliOperator,
    StabilizerCode,
    Verdict,
    classify,
    css_split,
    max_independence_order,
    pauli_to_string,
    syndrome_direct,
)
from stabcheck.channel import _trial_rng, sample_error
from stabcheck.symplectic import (
    ALL_INDEPENDENT,
    BUDGET_EXHAUSTED,
    DEPENDENT_FOUND,
    BitVector,
    Gf2Matrix,
    RowBasis,
    SubsetSearch,
    row_reduce,
)

LETTERS = "XYZ"

# phaseless single-qubit products
_MUL = {
    ("I", "I"): "I", ("I", "X"): "X", ("I", "Y"): "Y", ("I", "Z"): "Z",
    ("X", "I"): "X", ("X", "X"): "I", ("X", "Y"): "Z", ("X", "Z"): "Y",
    ("Y", "I"): "Y", ("Y", "X"): "Z", ("Y", "Y"): "I", ("Y", "Z"): "X",
    ("Z", "I"): "Z", ("Z", "X"): "Y", ("Z", "Y"): "X", ("Z", "Z"): "I",
}


def weight(p: str) -> int:
    return sum(c != "I" for c in p)


def anticommutes(a: str, b: str) -> bool:
    clashes = 0
    for ca, cb in zip(a, b, strict=True):
        if ca != "I" and cb != "I" and ca != cb:
            clashes += 1
    return clashes % 2 == 1


def multiply(a: str, b: str) -> str:
    return "".join(_MUL[pair] for pair in zip(a, b, strict=True))


def syndrome_string(generators: list[str], error: str) -> str:
    """Bit i: does generator i anticommute with the error?  Only the error's
    support is looked at, so light errors on wide codes stay cheap."""
    support = [(i, c) for i, c in enumerate(error) if c != "I"]
    return "".join(
        "1" if sum(g[i] != "I" and g[i] != c for i, c in support) % 2 else "0"
        for g in generators
    )


def span(generators: list[str]) -> frozenset[str]:
    """Every product of a subset of the generators.  Exponential; keep m small."""
    acc = {"I" * len(generators[0])}
    for g in generators:
        acc |= {multiply(g, e) for e in acc}
    return frozenset(acc)


def _xz(p: str) -> tuple[int, ...]:
    """p's X bits, then its Z bits, one per qubit."""
    return tuple(int(c in "XY") for c in p) + tuple(int(c in "ZY") for c in p)


def _reduced(basis: list[tuple[int, tuple[int, ...]]], v: tuple[int, ...]) -> tuple[int, ...]:
    for pivot, row in basis:
        if v[pivot]:
            v = tuple(a ^ b for a, b in zip(v, row))
    return v


def echelon(generators: list[str]) -> list[tuple[int, tuple[int, ...]]]:
    """(pivot, row) pairs spanning the generators' `_xz` bits: each row is 1
    at its pivot and 0 at the pivots of the rows before it."""
    basis: list[tuple[int, tuple[int, ...]]] = []
    for g in generators:
        v = _reduced(basis, _xz(g))
        if any(v):
            basis.append((v.index(1), v))
    return basis


def in_span(basis: list[tuple[int, tuple[int, ...]]], p: str) -> bool:
    """Whether p is in `span` of the generators that `basis` was built from,
    without listing the 2^rank products."""
    return not any(_reduced(basis, _xz(p)))


def weight_enumerators(code) -> tuple[list[int], list[int]]:
    """(A, B): A[j] counts the stabilizer elements of weight j, B[j] the
    elements of weight j that commute with every generator.

    B comes from A by the quantum MacWilliams identity (Shor-Laflamme 1997),
    B_j = 2^-(n-k) sum_i A_i K_j(i), with the Krawtchouk polynomial
    K_j(i) = sum_l (-1)^l 3^(j-l) C(i, l) C(n-i, j-l), the coefficient of
    y^j in (1 + 3y)^(n-i) (1 - y)^i.  Enumerates all 2^(n-k) stabilizer
    elements; keep n - k small.
    """
    n = code.n
    a = [0] * (n + 1)
    for s in span([pauli_to_string(g) for g in code.h.generators]):
        a[weight(s)] += 1
    b = []
    for j in range(n + 1):
        total = sum(
            a[i] * (-1) ** l * 3 ** (j - l) * comb(i, l) * comb(n - i, j - l)
            for i in range(n + 1)
            for l in range(j + 1)
        )
        b_j, rest = divmod(total, 2**code.num_generators)
        assert rest == 0, (j, total)
        b.append(b_j)
    return a, b


# each of the six permutations of X, Y, Z, as the images of "XYZ"; a
# permutation on one qubit keeps commutation and weight, so a relabeled code
# keeps its distance, verdicts and weight enumerators
LETTER_MAPS = ("XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX")


def relabel(code, rng, maps: tuple[str, ...] = LETTER_MAPS) -> StabilizerCode:
    """The code with its qubits permuted and a letter map from `maps` applied
    on each qubit, both drawn from `rng` (a `random.Random`).

    Qubit permutations and the X<->Z swap "ZYX" permute the columns of
    [H_X|H_Z], so with maps=("XYZ", "ZYX") the column order is kept too.
    """
    n = code.n
    perm = rng.sample(range(n), n)
    letters = [dict(zip("IXYZ", "I" + rng.choice(maps))) for _ in range(n)]
    images = []
    for g in code.h.generators:
        s = pauli_to_string(g)
        chars = ["I"] * n
        for q, c in enumerate(s):
            chars[perm[q]] = letters[q][c]
        images.append("".join(chars))
    return StabilizerCode.from_strings(*images)


def weight_level(n: int, w: int):
    """All Pauli strings on n qubits with weight exactly w."""
    for support in combinations(range(n), w):
        for letters in product(LETTERS, repeat=w):
            chars = ["I"] * n
            for pos, letter in zip(support, letters):
                chars[pos] = letter
            yield "".join(chars)


def errors_up_to(n: int, t: int):
    for w in range(1, t + 1):
        yield from weight_level(n, w)


def min_weight_logical(generators: list[str], limit: int) -> str | None:
    """Lightest commuting-with-all Pauli outside the generated group."""
    n = len(generators[0])
    group = span(generators)
    for w in range(1, limit + 1):
        for e in weight_level(n, w):
            if any(anticommutes(g, e) for g in generators):
                continue
            if e in group:
                continue
            return e
    return None


def first_logical_colex(generators: list[str], limit: int) -> str | None:
    """First logical met with supports in colex order and letters in lex order.

    Weight levels ascend; within one, supports are ordered by their largest
    qubit, then the next largest, and so on (colex), and the letters on a
    support run X < Y < Z with the lowest qubit most significant.
    """
    n = len(generators[0])
    group = span(generators)
    for w in range(1, limit + 1):
        supports = sorted(combinations(range(n), w), key=lambda s: s[::-1])
        for support in supports:
            for letters in product(LETTERS, repeat=w):
                chars = ["I"] * n
                for pos, letter in zip(support, letters):
                    chars[pos] = letter
                e = "".join(chars)
                if syndrome_string(generators, e) == "0" * len(generators):
                    if e not in group:
                        return e
    return None


def is_degenerate(generators: list[str], t: int) -> bool:
    """Syndrome map non-injective on the weight <= t errors (identity included)."""
    n = len(generators[0])
    seen = {syndrome_string(generators, "I" * n)}
    for e in errors_up_to(n, t):
        s = syndrome_string(generators, e)
        if s in seen:
            return True
        seen.add(s)
    return False


def claim_syndromes(generators: list[str], t: int):
    """Fill a syndrome -> error map from the weight 1..t errors, identity first.

    Returns (distinct non-zero syndromes, first collision as (claimant,
    error) or None, 1-based index of the error that claimed the last free
    syndrome or None when the map never fills, non-zero syndromes claimed
    before the first collision or None when nothing collides).  Every error
    before the first collision claims, so it is the collision's index - 1.
    """
    n = len(generators[0])
    claims = {syndrome_string(generators, "I" * n): "I" * n}
    collision = None
    filled_at = None
    claimed_before = None
    for i, e in enumerate(errors_up_to(n, t), start=1):
        s = syndrome_string(generators, e)
        if s in claims:
            if collision is None:
                collision = (claims[s], e)
                claimed_before = len(claims) - 1
            continue
        claims[s] = e
        if len(claims) == 2 ** len(generators):
            filled_at = i
    return len(claims) - 1, collision, filled_at, claimed_before


def smallest_dependent_columns(columns: list[int], max_size: int) -> tuple[int, ...] | None:
    """Colex-least zero-XOR subset of the smallest size, by brute force.

    At the first size where any dependent subset exists, the dependence must
    use the whole subset (a smaller circuit would have been found earlier),
    so testing the full XOR suffices.
    """
    indices = range(len(columns))
    for size in range(1, max_size + 1):
        best = None
        for subset in combinations(indices, size):
            acc = 0
            for j in subset:
                acc ^= columns[j]
            if acc == 0:
                key = tuple(reversed(subset))
                if best is None or key < tuple(reversed(best)):
                    best = subset
        if best is not None:
            return best
    return None


def kernel_basis_rref(m: Gf2Matrix) -> tuple[BitVector, ...]:
    """Basis of {v : m @ v = 0}; one vector per non-pivot column of the RREF."""
    red = row_reduce(m)
    pivot_set = set(red.pivot_cols)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = 1 << free
        for i, pc in enumerate(red.pivot_cols):
            if (red.reduced.rows[i] >> free) & 1:
                v |= 1 << pc
        basis.append(BitVector(m.cols, v))
    return tuple(basis)


def trial_failures(code, channel, trials: int, seed: int, table: dict, strict: bool = False) -> list[bool]:
    """Whether each of trials 0 .. trials - 1 of `simulate` fails, one trial
    at a time from the reference sampler.

    Trial t's error is `sample_error(channel, n, _trial_rng(seed, t))`; its
    syndrome comes from `syndrome_direct`, and a recovery succeeds when the
    residual string is the identity (strict) or in the generators' span,
    tested by elimination (`in_span`): `span` would list 2**(n-k) strings.
    """
    n = code.n
    basis = echelon([pauli_to_string(g) for g in code.h.generators])
    failed = []
    for trial in range(trials):
        err = sample_error(channel, n, _trial_rng(seed, trial))
        rep = table.get(syndrome_direct(code, err).bits.bits)
        if rep is None:
            failed.append(True)
            continue
        residual = multiply(
            pauli_to_string(err), pauli_to_string(PauliOperator.from_masks(n, *rep))
        )
        ok = residual == "I" * n if strict else in_span(basis, residual)
        failed.append(not ok)
    return failed


def simulate_failures(code, channel, trials: int, seed: int, table: dict, strict: bool = False) -> int:
    """Failures of `simulate`: the count of `trial_failures`."""
    return sum(trial_failures(code, channel, trials, seed, table, strict))


def table_fill(code, max_weight: int | None = None) -> tuple[dict, int]:
    """(table, max_weight) of `build_table`, one `syndrome_masks` call per error.

    The errors come from the letter strings of `weight_level`.

    Weight levels ascend from the identity; each syndrome keeps the first
    error that produces it, and the fill breaks off at the error that claims
    the last free syndrome.
    """
    total = 1 << code.num_generators
    table = {0: (0, 0)}
    limit = code.n if max_weight is None else max_weight
    reached = 0
    for w in range(1, limit + 1):
        if len(table) == total:
            break
        reached = w
        for e in weight_level(code.n, w):
            x = sum(1 << i for i, c in enumerate(e) if c in "XY")
            z = sum(1 << i for i, c in enumerate(e) if c in "YZ")
            s = code.syndrome_masks(x, z)
            if s not in table:
                table[s] = (x, z)
                if len(table) == total:
                    break
    return table, reached


class _OutOfBudget(Exception):
    pass


def subset_search_dfs(m: Gf2Matrix, max_size: int, budget: int) -> SubsetSearch:
    """`smallest_dependent_subset` by the colex DFS with a reduce at every level.

    Each size runs a largest-element-first DFS; every column insertion is
    one visit, checked against the budget before it happens, and the first
    zero residue is the colex-least circuit of that size.
    """
    cols = m.columns()
    visited = 0

    def extend(basis: RowBasis, bound: int, depth: int, chosen: list[int]):
        nonlocal visited
        for c in range(depth - 1, bound):
            if visited >= budget:
                raise _OutOfBudget
            visited += 1
            res = basis.reduce(cols[c])
            if res == 0:
                return tuple(sorted(chosen + [c]))
            if depth > 1:
                wider = chosen + [c]
                hit = extend(RowBasis([cols[j] for j in wider]), c, depth - 1, wider)
                if hit is not None:
                    return hit
        return None

    verified = 0
    try:
        for size in range(1, max_size + 1):
            hit = extend(RowBasis(), m.cols, size, [])
            if hit is not None:
                return SubsetSearch(DEPENDENT_FOUND, hit, visited, verified)
            verified = size
    except _OutOfBudget:
        return SubsetSearch(BUDGET_EXHAUSTED, None, visited, verified)
    return SubsetSearch(ALL_INDEPENDENT, None, visited, verified)


def column_bounds_by_classify(code, t: int, budget: int) -> ColumnBounds:
    """`column_bounds` with nondegeneracy always taken from `classify`."""
    order, exhausted = max_independence_order(code.h.h, budget=budget)
    lower = 2 * (order // 4) + 1
    upper = exact = block_orders = None
    encodes = code.k >= 1
    nondegenerate = classify(code, t).verdict is Verdict.NONDEGENERATE
    if encodes and nondegenerate and order <= 4 * t and not exhausted:
        upper = 4 * t + 1
    split = css_split(code)
    if split is not None:
        x_order, x_exh = max_independence_order(split.x_block, budget=budget)
        z_order, z_exh = max_independence_order(split.z_block, budget=budget)
        block_orders = (x_order, z_order)
        exhausted = exhausted or x_exh or z_exh
        if encodes and min(x_order, z_order) == 2 * t and not (x_exh or z_exh):
            exact = lower = upper = 2 * t + 1
    return ColumnBounds(t, order, lower, upper, exact, block_orders, exhausted)
