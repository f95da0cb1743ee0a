from __future__ import annotations

import random
from pathlib import Path

import pytest

import stabcheck as sc
from stabcheck import degeneracy
from stabcheck.symplectic import Gf2Matrix, kernel_basis

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def steane() -> sc.StabilizerCode:
    return sc.steane()


@pytest.fixture
def shor() -> sc.StabilizerCode:
    return sc.shor()


@pytest.fixture
def five_qubit() -> sc.StabilizerCode:
    return sc.five_qubit()


@pytest.fixture
def bitflip3() -> sc.StabilizerCode:
    return sc.three_qubit_bit_flip()


@pytest.fixture
def syndrome_calls(monkeypatch):
    """Record StabilizerCode.syndrome_masks calls; read the list's length."""
    calls = []
    inner = sc.StabilizerCode.syndrome_masks

    def counted(self, x, z):
        calls.append((x, z))
        return inner(self, x, z)

    monkeypatch.setattr(sc.StabilizerCode, "syndrome_masks", counted)
    return calls


@pytest.fixture
def fill_chunks(monkeypatch):
    """(weight, errors) of each chunk the syndrome fill evaluates, in order."""
    chunks = []
    inner = degeneracy._error_chunks

    def counted(n, max_weight):
        # the fill evaluates every chunk it draws
        for w, idx in inner(n, max_weight):
            chunks.append((w, len(idx)))
            yield w, idx

    monkeypatch.setattr(degeneracy, "_error_chunks", counted)
    return chunks


@pytest.fixture
def claim_paths(monkeypatch):
    """Names of the claim path each chunk of a fill took, in order."""
    paths = []
    for name in ("_first_free_owned", "_first_free_sorted"):
        inner = getattr(degeneracy, name)

        def counted(*args, _inner=inner, _name=name):
            paths.append(_name)
            return _inner(*args)

        monkeypatch.setattr(degeneracy, name, counted)
    return paths


def repetition_code(n: int) -> sc.StabilizerCode:
    """Z_i Z_{i+1} on n qubits: n - 1 syndrome bits; X on qubit n - 1 sets the top."""
    return sc.StabilizerCode.from_strings(
        *("I" * i + "ZZ" + "I" * (n - 2 - i) for i in range(n - 1))
    )


def draw_code(rng: random.Random, max_n: int, css_share: float = 0.0) -> sc.StabilizerCode:
    """One random valid code; a css_share fraction of draws is CSS by design."""
    while True:
        n = rng.randint(2, max_n)
        if rng.random() < css_share:
            rows = rng.randint(2, n)
            num_x = rng.randint(1, rows - 1)
            code = sc.random_css_code(n, num_x, rows - num_x, rng)
            if code is None:
                continue
            return code
        rows = rng.randint(1, n)
        return sc.random_code(n, rows, rng)


def draw_codes(count: int, max_n: int, seed: int, css_share: float = 0.0):
    rng = random.Random(seed)
    for _ in range(count):
        yield draw_code(rng, max_n, css_share)


def generator_strings(code: sc.StabilizerCode) -> list[str]:
    return [sc.pauli_to_string(g) for g in code.h.generators]


def bch_31_11() -> sc.StabilizerCode:
    """[[31,11,5]] code from the dual-containing classical [31,21,5] BCH code.

    Both halves use the same 10 parity rows (the classical dual), which is
    self-orthogonal, so all generators commute.  The classical code's known
    minimum distance 5 pins the block column independence order at 4.
    """
    n = 31

    def polymul(a: int, b: int) -> int:
        out = 0
        while b:
            if b & 1:
                out ^= a
            a <<= 1
            b >>= 1
        return out

    g = polymul(0b100101, 0b111101)  # (x^5+x^2+1)(x^5+x^4+x^3+x^2+1)
    gen_rows = tuple(g << i for i in range(n - (g.bit_length() - 1)))
    h_rows = [v.bits for v in kernel_basis(Gf2Matrix(n, gen_rows))]
    gens = [sc.PauliOperator.from_masks(n, h, 0) for h in h_rows]
    gens += [sc.PauliOperator.from_masks(n, 0, h) for h in h_rows]
    return sc.StabilizerCode(sc.validate(gens), label="bch_31_11", designed_distance=5)


def css_state_6_0() -> sc.StabilizerCode:
    """[[6,0]] CSS stabilizer state whose two classical sides are [6,3,3]."""
    return sc.StabilizerCode.from_strings(
        "IXXXII", "XIXIXI", "XXIIIX",
        "ZIIIZZ", "IZIZIZ", "IIZZZI",
    )


def rotated_surface(d: int) -> sc.StabilizerCode:
    """[[d^2, 1, d]] rotated surface code, for odd d >= 3.

    Qubit (r, c) of the d x d grid is letter r * d + c.  Face (i, j),
    0 <= i, j <= d - 2, checks its four corners with X when i + j is even,
    else with Z.  Weight-2 X checks close the top and bottom edges, weight-2
    Z checks the left and right: X on (0, j), (0, j+1) for odd j and on
    (d-1, j), (d-1, j+1) for even j; Z on (i, 0), (i+1, 0) for even i and on
    (i, d-1), (i+1, d-1) for odd i; of the 16 parity choices for the four
    edges, this one gives k = 1 at d = 3, 5 and 7.  Qubits (0, 0) and (1, 0)
    lie in one X check, face (0, 0), and in no other, so Z on either has one
    syndrome: [H_X|H_Z] has two equal columns, and its column order is 1.
    """

    def check(letter: str, cells) -> str:
        chars = ["I"] * (d * d)
        for r, c in cells:
            chars[r * d + c] = letter
        return "".join(chars)

    gens = [
        check("XZ"[(i + j) % 2], [(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)])
        for i in range(d - 1)
        for j in range(d - 1)
    ]
    for j in range(d - 1):
        row = 0 if j % 2 else d - 1
        gens.append(check("X", [(row, j), (row, j + 1)]))
    for i in range(d - 1):
        col = 0 if i % 2 == 0 else d - 1
        gens.append(check("Z", [(i, col), (i + 1, col)]))
    return sc.StabilizerCode.from_strings(*gens)
