"""The four benchmark workloads: seeded inputs, timed calls and output checks.

`prepare(name, seed)` builds a workload's inputs (the benchmark's set-up);
`workload(name, inputs)` turns them into the list of calls one pass makes,
each with a check of its output.  Expected values that need work of their
own (failure recounts, reference CLI output) are computed there, before any
timing starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import stabcheck as sc
from stabcheck import cli
from stabcheck.symplectic import Gf2Matrix, kernel_basis

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
FIXTURE_NAMES = ("steane", "shor", "five_qubit", "bitflip3")

# Frozen outputs the tier-1 suite also pins.
FROZEN_WITNESS = {"steane": "XXXIIII", "shor": "XXXIIIIII", "five_qubit": "XYXII", "bitflip3": "ZII"}
FROZEN_DISTANCE = {"steane": 3, "shor": 3, "five_qubit": 3, "bitflip3": 1}
STEANE_SEED7_FAILURES = 702  # depolarizing 0.05, 20k trials, seed 7
A9_ARGV = ["simulate", "--code", str(FIXTURES / "steane.stab"), "--depolarizing", "0.05",
           "--trials", "2000", "--seed", "42", "--json"]
A9_FAILURES = 73

# Weight-<=3 errors of the [[31,11,5]] code reach 97,000 distinct syndromes
# and weight-<=2 errors 4,278, whatever the qubit order.
BCH_TABLE_ENTRIES = 97_000
BCH_T2_SYNDROMES = 4_278


@dataclass
class Call:
    """One timed call; `check` gets its output and says whether it is right."""

    kind: str
    fn: Callable[[], Any]
    check: Callable[[Any], bool]
    trials: int = 0


@dataclass
class Workload:
    calls: list[Call]
    # Checks made once, before timing: (description, passed).
    one_off: list[tuple[str, bool]] = field(default_factory=list)


def bch_31_11() -> sc.StabilizerCode:
    """[[31,11,5]] code from the dual-containing classical [31,21,5] BCH code.

    Both halves use the same 10 parity rows (the classical dual), which is
    self-orthogonal, so all generators commute.
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


def permute_qubits(code: sc.StabilizerCode, perm: list[int]) -> sc.StabilizerCode:
    """Same code with qubit j moved to position perm[j]."""
    n = code.n

    def move(mask: int) -> int:
        return sum(1 << perm[j] for j in range(n) if mask >> j & 1)

    gens = [sc.PauliOperator.from_masks(n, move(g.x.bits), move(g.z.bits)) for g in code.h.generators]
    return sc.StabilizerCode(sc.validate(gens), label=code.label, designed_distance=code.designed_distance)


def load_fixtures() -> dict[str, sc.StabilizerCode]:
    return {name: sc.parse_code_file(FIXTURES / f"{name}.stab") for name in FIXTURE_NAMES}


def permuted_bch(rng: random.Random) -> sc.StabilizerCode:
    perm = list(range(31))
    rng.shuffle(perm)
    return permute_qubits(bch_31_11(), perm)


def prepare(name: str, seed: int, tiny: bool = False) -> dict[str, Any]:
    """Build the inputs of one workload from its seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "sim_small":
        trials = 200 if tiny else 2000
        channels = {f: sc.PauliChannel.depolarizing(0.05) for f in FIXTURE_NAMES}
        channels["bitflip3"] = sc.PauliChannel(0.05, 0.0, 0.0)
        runs = [(f, channels[f], trials, rng.randrange(2**32)) for f in FIXTURE_NAMES]
        return {"codes": load_fixtures(), "runs": runs}
    if name == "distance_bch":
        return {"bch": permuted_bch(rng), "codes": load_fixtures(), "limit": 3 if tiny else 4}
    if name == "table_bch":
        return {"bch": permuted_bch(rng), "trials": 400 if tiny else 4000, "seed": rng.randrange(2**32)}
    if name == "cli_small":
        return {"requests": cli_requests(rng, trials=100 if tiny else 300)}
    raise ValueError(f"unknown workload {name!r}")


def cli_requests(rng: random.Random, trials: int) -> list[list[str]]:
    requests = []
    for f in FIXTURE_NAMES:
        path = str(FIXTURES / f"{f}.stab")
        n = sc.parse_code_file(path).n
        requests += [
            ["validate", "--code", path],
            ["matrices", "--code", path],
            ["standard-form", "--code", path],
            ["classify", "--code", path, "--t", "1"],
            ["distance", "--code", path],
        ]
        for _ in range(2):
            error = "".join(rng.choice("IXYZ") for _ in range(n))
            requests.append(["syndrome", "--code", path, "--error", error])
        requests.append(
            ["simulate", "--code", path, "--depolarizing", "0.05",
             "--trials", str(trials), "--seed", str(rng.randrange(2**32))]
        )
    requests = [r + ["--json"] for r in requests] + [A9_ARGV]
    rng.shuffle(requests)
    return requests


def workload(name: str, inputs: dict[str, Any]) -> Workload:
    return {
        "sim_small": _sim_small,
        "distance_bch": _distance_bch,
        "table_bch": _table_bch,
        "cli_small": _cli_small,
    }[name](inputs)


# ---------------------------------------------------------------- checks


def _span_test(code: sc.StabilizerCode) -> Callable[[int, int], bool]:
    """Membership in the stabilizer row space, computed without the library.

    Small codes list the whole span; larger ones reduce against an echelon
    basis built here.
    """
    n = code.n
    rows = [g.x.bits | (g.z.bits << n) for g in code.h.generators]
    if len(rows) <= 12:
        span = {0}
        for r in rows:
            span |= {v ^ r for v in span}
        return lambda x, z: (x | (z << n)) in span
    pivots: dict[int, int] = {}
    for r in rows:
        for p, row in sorted(pivots.items(), reverse=True):
            if r >> p & 1:
                r ^= row
        if r:
            pivots[r.bit_length() - 1] = r
    ordered = sorted(pivots.items(), reverse=True)

    def contains(x: int, z: int) -> bool:
        v = x | (z << n)
        for p, row in ordered:
            if v >> p & 1:
                v ^= row
        return v == 0

    return contains


def recount_failures(code, channel, trials: int, seed: int, table: dict) -> int:
    """Failures of `simulate`, recounted trial by trial.

    Each trial draws from numpy's Philox keyed by (seed, trial), as the
    channel module documents; syndromes come from `syndrome_direct` and
    recovery is judged by span membership.
    """
    in_span = _span_test(code)
    failures = 0
    for trial in range(trials):
        rng = np.random.Generator(np.random.Philox(key=[seed, trial]))
        err = sc.sample_error(channel, code.n, rng)
        s = sc.syndrome_direct(code, err).bits.bits
        rep = table.get(s)
        if rep is None or not in_span(err.x.bits ^ rep[0], err.z.bits ^ rep[1]):
            failures += 1
    return failures


def _table_digest(table: sc.DecoderTable) -> tuple[int, int, int]:
    return table.covered, table.max_weight, hash(frozenset(table.table.items()))


def _entries_reproduce_syndromes(code, table: sc.DecoderTable, sample: list[int]) -> bool:
    """Each sampled entry's representative has its key as direct syndrome."""
    n = code.n
    for s in sample:
        x, z = table.table[s]
        err = sc.PauliOperator.from_masks(n, x, z)
        if sc.syndrome_direct(code, err).bits.bits != s or err.weight > table.max_weight:
            return False
    return True


# ---------------------------------------------------------------- workloads


def _sim_small(inputs: dict[str, Any]) -> Workload:
    codes = inputs["codes"]
    state: dict[str, sc.DecoderTable] = {}
    calls: list[Call] = []
    one_off = []
    tables = {f: sc.build_table(codes[f]) for f in FIXTURE_NAMES}
    for f in FIXTURE_NAMES:
        one_off.append(
            (f"{f} table full and every entry reproduces its syndrome",
             tables[f].full and _entries_reproduce_syndromes(codes[f], tables[f], sorted(tables[f].table)))
        )

    def table_call(f: str) -> Call:
        code, digest = codes[f], _table_digest(tables[f])

        def fn():
            state[f] = sc.build_table(code)
            return state[f]

        return Call("table", fn, lambda t: _table_digest(t) == digest)

    def sim_call(f: str, channel, trials: int, seed: int, expected: int) -> Call:
        code = codes[f]
        return Call(
            "simulate",
            lambda: sc.simulate(code, channel, trials, seed, table=state[f]),
            lambda r: r.failures == expected and r.trials == trials,
            trials=trials,
        )

    for f, channel, trials, seed in inputs["runs"]:
        expected = recount_failures(codes[f], channel, trials, seed, tables[f].table)
        calls += [table_call(f), sim_call(f, channel, trials, seed, expected)]
    calls.append(
        sim_call("steane", sc.PauliChannel.depolarizing(0.05), 20_000, 7, STEANE_SEED7_FAILURES)
    )
    return Workload(calls, one_off)


def _distance_bch(inputs: dict[str, Any]) -> Workload:
    bch, limit = inputs["bch"], inputs["limit"]

    def bch_ok(r) -> bool:
        return (
            r.d is None and r.witness is None and r.lower == 5 and r.upper == 5
            and r.max_independence_order == 4 and r.search_limit == limit
            and not r.budget_exhausted
        )

    calls = [Call("distance", lambda: sc.min_distance(bch, limit, t=2), bch_ok)]
    for f, code in inputs["codes"].items():
        t = code.default_t if code.default_t and code.default_t >= 1 else None
        calls.append(
            Call(
                "distance",
                lambda code=code, t=t: sc.min_distance(code, t=t),
                lambda r, f=f: r.d == FROZEN_DISTANCE[f]
                and r.witness is not None
                and sc.pauli_to_string(r.witness) == FROZEN_WITNESS[f],
            )
        )
    return Workload(calls)


def _table_bch(inputs: dict[str, Any]) -> Workload:
    bch, trials, seed = inputs["bch"], inputs["trials"], inputs["seed"]
    channel = sc.PauliChannel.depolarizing(0.01)
    reference = sc.build_table(bch, max_weight=3)
    digest = _table_digest(reference)
    sample = random.Random(seed).sample(sorted(reference.table), 300)
    expected_failures = recount_failures(bch, channel, trials, seed, reference.table)
    one_off = [
        ("BCH table entries reproduce their syndromes", _entries_reproduce_syndromes(bch, reference, sample)),
    ]
    del reference
    state: dict[str, sc.DecoderTable] = {}

    def table_fn():
        state["table"] = sc.build_table(bch, max_weight=3)
        return state["table"]

    def table_ok(t) -> bool:
        return (
            t.covered == BCH_TABLE_ENTRIES and t.max_weight == 3
            and t.num_syndromes == 2**20 and _table_digest(t) == digest
        )

    def classify_ok(rep) -> bool:
        criteria = {k: v.value for k, v in rep.criteria.items()}
        return (
            rep.verdict is sc.Verdict.NONDEGENERATE
            and rep.syndrome_count == BCH_T2_SYNDROMES
            and rep.expected_count == BCH_T2_SYNDROMES
            and rep.collision_count == 0
            and criteria == {
                "exact": "nondegenerate",
                "sufficient_columns": "inconclusive",
                "necessary_columns": "inconclusive",
                "css_blocks": "nondegenerate",
                "standard_form": "inconclusive",
            }
        )

    def bounds_ok(b) -> bool:
        return (
            b.lower == b.upper == b.exact == 5 and b.max_independence_order == 4
            and b.block_orders == (4, 4) and not b.budget_exhausted
        )

    calls = [
        Call("table", table_fn, table_ok),
        Call(
            "simulate",
            lambda: sc.simulate(bch, channel, trials, seed, table=state["table"]),
            lambda r: r.failures == expected_failures and r.trials == trials,
            trials=trials,
        ),
        Call("classify", lambda: sc.classify(bch, 2, exhaustive=True, with_criteria=True), classify_ok),
        Call("classify", lambda: sc.column_bounds(bch, 2), bounds_ok),
    ]
    return Workload(calls, one_off)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _cli_reference_ok(argv: list[str], rc: int, text: str) -> bool:
    """Content checks on the first answer to a request."""
    if rc != 0:
        return False
    result = json.loads(text)["result"]
    command = argv[0]
    code = sc.parse_code_file(argv[argv.index("--code") + 1])
    label = Path(argv[argv.index("--code") + 1]).stem
    if command == "validate":
        return result["valid"] is True and result["n"] == code.n and result["k"] == code.k
    if command == "syndrome":
        error = sc.pauli_from_string(argv[argv.index("--error") + 1])
        return result["syndrome"] == str(sc.syndrome_direct(code, error))
    if command == "distance":
        return result["d"] == FROZEN_DISTANCE[label] and result["witness"] == FROZEN_WITNESS[label]
    if argv == A9_ARGV:
        return result["failures"] == A9_FAILURES
    return True


def _cli_small(inputs: dict[str, Any]) -> Workload:
    calls = []
    for argv in inputs["requests"]:
        rc, text = run_cli(argv)
        ok = _cli_reference_ok(argv, rc, text)
        calls.append(
            Call(
                "cli",
                lambda argv=argv: run_cli(argv),
                lambda out, ok=ok, rc=rc, text=text: ok and out == (rc, text),
            )
        )
    return Workload(calls)
