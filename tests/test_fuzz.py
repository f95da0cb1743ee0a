"""Fuzz the command line: any argv and any code file exits 0, 2 or 3.

Work stays small on purpose: files hold at most 6 qubits, `--trials` is at
most 200, `--budget` at most 10^4, every run passes `--workers 1` and
`STABCHECK_WORKERS` is unset, so no example starts a process pool.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES_DIR, draw_code
from stabcheck import cli, pauli_to_string

MAX_QUBITS = 6
COMMANDS = ("validate", "syndrome", "matrices", "classify", "distance", "standard-form", "simulate")

pauli_line = st.builds(
    lambda phase, letters: phase + letters,
    st.sampled_from(["", "+", "-", "i", "+i", "-i", "-i ", "?"]),
    st.text("IXYZxq _", max_size=MAX_QUBITS),
)
header_line = st.builds(
    "n={} rows={}".format, st.integers(0, MAX_QUBITS), st.integers(0, 4)
)
bit_row = st.integers(1, MAX_QUBITS).flatmap(
    lambda n: st.lists(st.sampled_from("01"), min_size=2 * n, max_size=2 * n).map(
        lambda bits: " ".join(bits[:n] + ["|"] + bits[n:])
    )
    | st.lists(st.sampled_from(["0", "1", "2", "|"]), max_size=2 * n).map(" ".join)
)
directive = st.builds(
    "# {}: {}".format,
    st.sampled_from(["label", "distance", "Distance", "lable"]),
    st.sampled_from(["", "0", "1", "3", "5", "9", "-1", "x", "²", "٣", "3 # c"]),
)
text_line = (pauli_line | header_line | bit_row | directive).map(str.encode)
# raw bytes keep lines to MAX_QUBITS bytes, so no line can hold more qubits
raw_line = st.binary(max_size=MAX_QUBITS).map(lambda b: b.replace(b"\n", b" "))
noise = st.lists(text_line | raw_line, max_size=8)


def code_lines(code, binary: bool) -> list[str]:
    if not binary:
        return [pauli_to_string(g) for g in code.h.generators]
    lines = [f"n={code.n} rows={code.num_generators}"]
    for g in code.h.generators:
        bits = [(m >> j) & 1 for m in (g.x.bits, g.z.bits) for j in range(code.n)]
        lines.append(" ".join(map(str, bits)))
    return lines


@st.composite
def code_bytes(draw):
    """Noise lines, or a valid random code with directives and a little noise."""
    if draw(st.booleans()):
        lines = draw(noise)
    else:
        code = draw_code(random.Random(draw(st.integers(0, 2**32))), MAX_QUBITS, 0.3)
        lines = [draw(directive)] if draw(st.integers(0, 3)) == 0 else []
        if draw(st.booleans()):
            lines.append(f"# distance: {draw(st.integers(1, 5))}")
        lines += code_lines(code, draw(st.booleans()))
        lines = [line.encode() for line in lines]
        if draw(st.integers(0, 3)) == 0:
            lines += draw(noise)[:1]
    return draw(st.sampled_from([b"\n", b"\r\n", b"\r"])).join(lines)


# mostly in range for small codes, sometimes out of it
small_int = (st.integers(1, 3) | st.integers(-3, MAX_QUBITS + 3)).map(str)
probability = st.sampled_from(["0", "0.05", "0.3", "1", "-0.1", "1.5", "nan", "inf", "1e-300", "x"])
OPTIONS = {
    "syndrome": {"--error": st.text("IXYZ+-iQ ", max_size=MAX_QUBITS + 2)},
    "classify": {
        "--t": small_int,
        "--budget": st.integers(-5, 10**4).map(str),
    },
    "distance": {
        "--t": small_int,
        "--limit": small_int,
        "--budget": st.integers(-5, 10**4).map(str),
    },
    "simulate": {
        "--px": probability,
        "--py": probability,
        "--pz": probability,
        "--depolarizing": probability,
        "--trials": st.integers(-2, 200).map(str),
        "--seed": st.integers(-(2**64), 2**64).map(str),
    },
}


@st.composite
def argvs(draw, code_path: str):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, "--code", code_path]
    for flag, values in OPTIONS.get(command, {}).items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    if command == "simulate":
        argv += ["--workers", "1"]
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra", "--t", "--budget=1e3"])))
    return argv


def exit_code(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def no_workers_env():
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(cli.WORKERS_ENV, raising=False)
        yield


@pytest.fixture(scope="module")
def code_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "code.stab"


FUZZ = settings(
    max_examples=200,
    deadline=2000,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(data=st.data(), content=code_bytes())
def test_any_code_file_exits_cleanly(no_workers_env, code_path, data, content):
    code_path.write_bytes(content)
    argv = data.draw(argvs(str(code_path)))
    rc, err = exit_code(argv)
    assert rc in (0, 2, 3), (argv, content, err)
    assert "Traceback" not in err


@FUZZ
@given(data=st.data())
def test_any_argv_on_fixtures_exits_cleanly(no_workers_env, data):
    paths = [str(p) for p in sorted(FIXTURES_DIR.glob("*.stab"))]
    path = data.draw(st.sampled_from(paths + [str(FIXTURES_DIR), "/nonexistent.stab"]))
    argv = data.draw(argvs(path))
    rc, err = exit_code(argv)
    assert rc in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    assert cli.WORKERS_ENV not in os.environ
