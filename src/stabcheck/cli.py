"""Command-line front end.

Every subcommand is a thin wrapper: parse the code file, call one library
operation, render the result.  JSON reports use sorted keys and carry no
timing or worker-count fields, so a fixed (input, seed, version) triple
produces byte-identical bytes run after run; elapsed time appears in the
text rendering only.

Exit codes: 0 success, 2 unreadable or invalid input, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Any, Callable

from . import __version__
from .channel import PauliChannel, build_table, check_run_args, run as run_channel
from .codefile import read_code_file
from .degeneracy import DEFAULT_BUDGET, CriterionOutcome, classify
from .distance import min_distance
from .stabilizer import (
    StabilizerCode,
    css_split,
    standard_form,
    syndrome,
)
from .symplectic import BitVector, pauli_from_string, pauli_to_string

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3

WORKERS_ENV = "STABCHECK_WORKERS"

Lines = list[str]
Payload = dict[str, Any]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        payload, lines, status = args.handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    elapsed = time.perf_counter() - started
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
        print(f"elapsed: {elapsed:.3f}s")
    return status


def entry() -> None:
    try:
        try:
            status = main()
        finally:  # also when argparse leaves by SystemExit (--help, --version)
            sys.stdout.flush()  # a closed reader surfaces here, not at shutdown
    except BrokenPipeError:
        # the reader has gone; stdout on devnull keeps the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message: str, file: Any = None) -> None:
        # argparse drops a failed write; a closed stdout reader must reach
        # `entry` (--help and --version, unbuffered) to exit 1
        if file is not None and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


# Built once per process: parse_args fills a fresh Namespace on every call,
# no default is mutable, help reads COLUMNS when it formats, and the handlers
# look up the library functions as module globals when they run.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stabcheck",
        description="Validate, classify and simulate quantum stabilizer codes.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_: str, handler: Callable[..., Any]) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--code", required=True, metavar="PATH", help="code file")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.set_defaults(handler=handler)
        return p

    add("validate", "parse a code file and check the generators", _cmd_validate)

    p = add("syndrome", "syndrome of one error operator", _cmd_syndrome)
    p.add_argument("--error", required=True, metavar="PAULI", help="error, e.g. XIIZY")

    add("matrices", "dump H_X, H_Z and the syndrome lookup matrices", _cmd_matrices)

    p = add("classify", "decide degeneracy at radius t", _cmd_classify)
    p.add_argument("--t", type=int, default=None, help="error radius (default: from file)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="column search budget")

    p = add("distance", "minimum distance by exhaustive search", _cmd_distance)
    p.add_argument("--limit", type=int, default=None, help="largest weight searched (default n)")
    p.add_argument("--t", type=int, default=None, help="radius for column bounds (optional)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="column search budget")

    add("standard-form", "row-reduced block form of the check matrix", _cmd_standard_form)

    p = add("simulate", "Monte Carlo logical failure rate", _cmd_simulate)
    p.add_argument("--px", type=float, default=None, help="X probability per qubit")
    p.add_argument("--py", type=float, default=None, help="Y probability per qubit")
    p.add_argument("--pz", type=float, default=None, help="Z probability per qubit")
    p.add_argument(
        "--depolarizing", type=float, default=None, metavar="P",
        help="depolarizing strength; excludes --px/--py/--pz",
    )
    p.add_argument("--trials", type=int, default=10000, help="sample count")
    p.add_argument("--seed", type=int, default=0, help="stream seed, 0 <= SEED < 2**63")
    p.add_argument(
        "--workers", type=int, default=None,
        help=f"process count (default ${WORKERS_ENV} or 1); never changes results",
    )

    return parser


def _load(args: argparse.Namespace) -> tuple[StabilizerCode, str]:
    cf = read_code_file(args.code)
    return cf.to_code(), cf.format


def _report(command: str, code: StabilizerCode, result: Payload) -> Payload:
    return {
        "command": command,
        "version": __version__,
        "code": {
            "label": code.label,
            "n": code.n,
            "k": code.k,
            "num_generators": code.num_generators,
        },
        "result": result,
    }


def _head(code: StabilizerCode) -> Lines:
    name = code.label or "(unlabeled)"
    return [f"code: {name}  [[{code.n},{code.k}]]"]


def _effective_t(args: argparse.Namespace, code: StabilizerCode) -> int:
    if args.t is not None:
        return args.t
    t = code.default_t
    if t is None:
        raise ValueError("--t is required: the file declares no distance")
    if t < 1:
        raise ValueError(
            f"declared distance {code.designed_distance} gives t={t}; pass --t"
        )
    return t


def _split_row(row: int, n: int) -> str:
    x = BitVector(n, row & ((1 << n) - 1)).to01()
    z = BitVector(n, row >> n).to01()
    return f"{x}|{z}"


def _matrix_lines(name: str, rows: list[str]) -> Lines:
    return [f"{name}:"] + [f"  {r}" for r in rows]


def _cmd_validate(args: argparse.Namespace) -> tuple[Payload, Lines, int]:
    code, fmt = _load(args)
    gens = [pauli_to_string(g) for g in code.h.generators]
    css = css_split(code) is not None
    result: Payload = {
        "valid": True,
        "format": fmt,
        "n": code.n,
        "k": code.k,
        "num_generators": code.num_generators,
        "is_css": css,
        "generators": gens,
    }
    lines = _head(code) + [
        f"format: {fmt}",
        f"generators: {code.num_generators}",
        f"css: {'yes' if css else 'no'}",
        "status: valid",
    ]
    return _report("validate", code, result), lines, EXIT_OK


def _cmd_syndrome(args: argparse.Namespace) -> tuple[Payload, Lines, int]:
    code, _ = _load(args)
    error = pauli_from_string(args.error)
    s = syndrome(code, error)
    violated = [i + 1 for i in range(s.num_generators) if s.bits.get(i)]
    result: Payload = {
        "error": pauli_to_string(error),
        "weight": error.weight,
        "syndrome": str(s),
        "violated_generators": violated,
    }
    lines = _head(code) + [
        f"error: {pauli_to_string(error)}  (weight {error.weight})",
        f"syndrome: {s}",
        f"violated generators: {violated or 'none'}",
    ]
    return _report("syndrome", code, result), lines, EXIT_OK


def _cmd_matrices(args: argparse.Namespace) -> tuple[Payload, Lines, int]:
    code, _ = _load(args)
    sm = code.syndrome_matrices
    result: Payload = {
        "h_x": code.h.h_x.to01(),
        "h_z": code.h.h_z.to01(),
        "bsm": sm.bsm.to01(),
        "psm": sm.psm.to01(),
    }
    lines = _head(code)
    lines += _matrix_lines("h_x (rows = generators)", result["h_x"])
    lines += _matrix_lines("h_z (rows = generators)", result["h_z"])
    lines += _matrix_lines("bsm (row i = syndrome of X on qubit i)", result["bsm"])
    lines += _matrix_lines("psm (row i = syndrome of Z on qubit i)", result["psm"])
    return _report("matrices", code, result), lines, EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> tuple[Payload, Lines, int]:
    code, _ = _load(args)
    t = _effective_t(args, code)
    report = classify(code, t, with_criteria=True, budget=args.budget)
    witness: Payload | None = None
    if report.witness is not None:
        witness = {
            "first": pauli_to_string(report.witness.first),
            "second": pauli_to_string(report.witness.second),
            "product_in_stabilizer": report.witness.product_in_stabilizer,
        }
    criteria = {k: v.value for k, v in report.criteria.items()}
    result: Payload = {
        "verdict": report.verdict.value,
        "t": t,
        "syndrome_count": report.syndrome_count,
        "expected_count": report.expected_count,
        "collision_count": report.collision_count,
        "witness": witness,
        "criteria": criteria,
    }
    lines = _head(code) + [
        f"t: {t}",
        f"verdict: {report.verdict.value}",
        f"distinct syndromes: {report.syndrome_count} of {report.expected_count} errors",
    ]
    if witness is not None:
        lines.append(
            f"witness: {witness['first']} ~ {witness['second']}"
            f"  (product in stabilizer: {'yes' if witness['product_in_stabilizer'] else 'no'})"
        )
    for name in sorted(criteria):
        lines.append(f"criterion {name}: {criteria[name]}")
    exhausted = CriterionOutcome.BUDGET_EXHAUSTED.value in criteria.values()
    return (
        _report("classify", code, result),
        lines,
        EXIT_BUDGET if exhausted else EXIT_OK,
    )


def _cmd_distance(args: argparse.Namespace) -> tuple[Payload, Lines, int]:
    code, _ = _load(args)
    t = args.t
    if t is None and code.default_t is not None and code.default_t >= 1:
        t = code.default_t
    res = min_distance(code, args.limit, t=t, budget=args.budget)
    result: Payload = {
        "d": res.d,
        "witness": None if res.witness is None else pauli_to_string(res.witness),
        "lower": res.lower,
        "upper": res.upper,
        "max_independence_order": res.max_independence_order,
        "search_limit": res.search_limit,
        "budget_exhausted": res.budget_exhausted,
        "t": t,
    }
    lines = _head(code) + [
        f"d: {res.d if res.d is not None else f'none at weight <= {res.search_limit}'}",
    ]
    if res.witness is not None:
        lines.append(f"witness: {pauli_to_string(res.witness)}")
    lines.append(f"bounds: lower {res.lower}, upper {res.upper if res.upper is not None else '-'}")
    lines.append(f"max independence order: {res.max_independence_order}")
    if res.budget_exhausted:
        lines.append("warning: column search budget exhausted; order is a lower bound")
    return (
        _report("distance", code, result),
        lines,
        EXIT_BUDGET if res.budget_exhausted else EXIT_OK,
    )


def _cmd_standard_form(args: argparse.Namespace) -> tuple[Payload, Lines, int]:
    code, _ = _load(args)
    sf = standard_form(code)
    blocks = {
        name: getattr(sf, name).to01() for name in ("a1", "a2", "b", "c", "d", "e")
    }
    result: Payload = {
        "n": sf.n,
        "k": sf.k,
        "r": sf.r,
        "qubit_order": [q + 1 for q in sf.qubit_permutation],
        "rows": [_split_row(row, sf.n) for row in sf.matrix.rows],
        "blocks": blocks,
    }
    lines = _head(code) + [
        f"r: {sf.r}",
        f"qubit order: {result['qubit_order']}",
    ]
    lines += _matrix_lines("rows (x|z)", result["rows"])
    for name in ("a1", "a2", "b", "c", "d", "e"):
        rows = blocks[name]
        if rows and rows[0]:
            lines += _matrix_lines(name.upper(), rows)
        else:
            lines.append(f"{name.upper()}: (empty)")
    return _report("standard_form", code, result), lines, EXIT_OK


def _channel_from(args: argparse.Namespace) -> PauliChannel:
    components = (args.px, args.py, args.pz)
    if args.depolarizing is not None:
        if any(p is not None for p in components):
            raise ValueError("--depolarizing excludes --px/--py/--pz")
        return PauliChannel.depolarizing(args.depolarizing)
    if all(p is None for p in components):
        raise ValueError("give --depolarizing or at least one of --px/--py/--pz")
    return PauliChannel(args.px or 0.0, args.py or 0.0, args.pz or 0.0)


def _worker_count(args: argparse.Namespace) -> int:
    if args.workers is not None:
        return args.workers
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV}={raw!r} is not an integer") from None
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV}={raw!r} must be >= 1")
    return workers


def _cmd_simulate(args: argparse.Namespace) -> tuple[Payload, Lines, int]:
    code, _ = _load(args)
    channel = _channel_from(args)
    workers = _worker_count(args)
    check_run_args(args.trials, args.seed, workers)  # before the table fill
    table = build_table(code)
    sim = run_channel(
        code, channel, args.trials, args.seed, table=table, workers=workers
    )
    result: Payload = {
        "channel": {"p_x": channel.p_x, "p_y": channel.p_y, "p_z": channel.p_z},
        "trials": sim.trials,
        "failures": sim.failures,
        "rate": sim.rate,
        "ci95": list(sim.ci95),
        "seed": sim.seed,
        "table": {
            "covered": table.covered,
            "num_syndromes": table.num_syndromes,
            "max_weight": table.max_weight,
        },
    }
    lines = _head(code) + [
        f"channel: px={channel.p_x:g} py={channel.p_y:g} pz={channel.p_z:g}",
        f"trials: {sim.trials}  seed: {sim.seed}",
        f"failures: {sim.failures}",
        f"rate: {sim.rate:.6g}",
        f"ci95: [{sim.ci95[0]:.6g}, {sim.ci95[1]:.6g}]",
        f"table: {table.covered}/{table.num_syndromes} syndromes covered",
    ]
    return _report("simulate", code, result), lines, EXIT_OK


if __name__ == "__main__":
    entry()
