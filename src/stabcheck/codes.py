"""Named example codes and random code generation."""

from __future__ import annotations

import random

from .stabilizer import StabilizerCode, validate
from .symplectic import Gf2Matrix, PauliOperator, RowBasis, _anticommute, kernel_basis

__all__ = [
    "steane",
    "shor",
    "five_qubit",
    "three_qubit_bit_flip",
    "random_code",
    "random_css_code",
]


def steane() -> StabilizerCode:
    """[[7,1,3]] CSS code; both blocks are the Hamming parity checks."""
    return StabilizerCode.from_strings(
        "IIIXXXX",
        "IXXIIXX",
        "XIXIXIX",
        "IIIZZZZ",
        "IZZIIZZ",
        "ZIZIZIZ",
        label="steane",
        designed_distance=3,
    )


def shor() -> StabilizerCode:
    """[[9,1,3]] CSS code; degenerate already for single-qubit errors."""
    return StabilizerCode.from_strings(
        "ZZIIIIIII",
        "IZZIIIIII",
        "IIIZZIIII",
        "IIIIZZIII",
        "IIIIIIZZI",
        "IIIIIIIZZ",
        "XXXXXXIII",
        "IIIXXXXXX",
        label="shor",
        designed_distance=3,
    )


def five_qubit() -> StabilizerCode:
    """[[5,1,3]] perfect code; not CSS."""
    return StabilizerCode.from_strings(
        "XZZXI",
        "IXZZX",
        "XIXZZ",
        "ZXIXZ",
        label="five_qubit",
        designed_distance=3,
    )


def three_qubit_bit_flip() -> StabilizerCode:
    """[[3,1,1]] repetition code; corrects X errors only, distance 1."""
    return StabilizerCode.from_strings(
        "ZZI",
        "IZZ",
        label="bit_flip3",
        designed_distance=1,
    )


# Most rows `random_code` draws: g generators take about 2**g draws, so 20
# fit and 36 (about 2**36 draws) are refused after a few seconds.
_MAX_DRAWS = 1 << 21


def random_code(
    n: int, num_generators: int, rng: random.Random
) -> StabilizerCode:
    """Uniform-ish random valid code: rejection-sample commuting rows.

    Draws nonzero symplectic vectors, keeping those that commute with and
    are independent of everything kept so far.  Such an extension always
    exists while num_generators <= n, but a draw commutes with each kept row
    only half the time, so this raises ValueError after `_MAX_DRAWS` draws.
    """
    if not 1 <= num_generators <= n:
        raise ValueError(f"need 1 <= generators <= n, got {num_generators} on {n}")
    rows: list[tuple[int, int]] = []
    basis = RowBasis()
    draws = 0
    while len(rows) < num_generators:
        if (draws := draws + 1) > _MAX_DRAWS:
            raise ValueError(f"no {num_generators} commuting rows in {_MAX_DRAWS} draws")
        x = rng.getrandbits(n)
        z = rng.getrandbits(n)
        if x == 0 and z == 0:
            continue
        if any(_anticommute(x, z, bx, bz) for bx, bz in rows):
            continue
        if not basis.add(x | (z << n)):
            continue
        rows.append((x, z))
    gens = tuple(PauliOperator.from_masks(n, x, z) for x, z in rows)
    return StabilizerCode(validate(gens))


def random_css_code(
    n: int,
    num_x: int,
    num_z: int,
    rng: random.Random,
    max_tries: int = 200,
) -> StabilizerCode | None:
    """Random CSS code with the requested block row counts, or None.

    X rows are drawn freely; Z rows are drawn from the null space of the X
    block, which is exactly the commutation constraint.  Returns None when
    the draw cannot reach full rank within max_tries.
    """
    if num_x < 0 or num_z < 0 or num_x + num_z < 1 or num_x + num_z > n:
        raise ValueError(f"bad block sizes ({num_x}, {num_z}) for n={n}")
    for _ in range(max_tries):
        x_rows: list[int] = []
        xb = RowBasis()
        tries = 0
        while len(x_rows) < num_x and tries < 50 * (num_x + 1):
            tries += 1
            v = rng.getrandbits(n)
            if v and xb.add(v):
                x_rows.append(v)
        if len(x_rows) < num_x:
            continue
        null = kernel_basis(Gf2Matrix(n, tuple(x_rows)))
        if len(null) < num_z:
            continue
        z_rows: list[int] = []
        zb = RowBasis()
        tries = 0
        while len(z_rows) < num_z and tries < 50 * (num_z + 1):
            tries += 1
            pick = rng.getrandbits(len(null))
            v = 0
            for i, kv in enumerate(null):
                if (pick >> i) & 1:
                    v ^= kv.bits
            if v and zb.add(v):
                z_rows.append(v)
        if len(z_rows) < num_z:
            continue
        gens = [PauliOperator.from_masks(n, x, 0) for x in x_rows]
        gens += [PauliOperator.from_masks(n, 0, z) for z in z_rows]
        # Rows of the two blocks are jointly independent by construction
        # (disjoint halves), but let validation be the judge.
        return StabilizerCode(validate(gens))
    return None
