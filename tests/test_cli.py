from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import stabcheck as sc
from conftest import FIXTURES_DIR, generator_strings
from stabcheck import cli
from stabcheck.channel import PauliChannel, build_table
from stabcheck.channel import run as run_channel
from stabcheck.degeneracy import classify
from stabcheck.distance import min_distance
from stabcheck.stabilizer import standard_form, syndrome
from stabcheck.symplectic import pauli_from_string, pauli_to_string

STEANE = str(FIXTURES_DIR / "steane.stab")
SHOR = str(FIXTURES_DIR / "shor.stab")
FIVE = str(FIXTURES_DIR / "five_qubit.stab")
BITFLIP = str(FIXTURES_DIR / "bitflip3.stab")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_console_script(name: str) -> tuple[str, str]:
    """Return ``(module, attr)`` of the ``[project.scripts]`` entry ``name``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as f:
        target = tomllib.load(f)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    return module, attr


def assert_prints_version(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"stabcheck {sc.__version__}"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv: str) -> dict:
    rc, out, err = run(capsys, *argv, "--json")
    assert rc == 0, err
    return json.loads(out)


class TestReportEnvelope:
    def test_common_fields(self, capsys):
        payload = run_json(capsys, "validate", "--code", STEANE)
        assert payload["command"] == "validate"
        assert payload["version"] == sc.__version__
        assert payload["code"] == {
            "label": "steane",
            "n": 7,
            "k": 1,
            "num_generators": 6,
        }

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"stabcheck {sc.__version__}"


class TestValidate:
    def test_steane(self, capsys, steane):
        res = run_json(capsys, "validate", "--code", STEANE)["result"]
        assert res == {
            "valid": True,
            "format": "pauli_strings",
            "n": 7,
            "k": 1,
            "num_generators": 6,
            "is_css": True,
            "generators": generator_strings(steane),
        }

    def test_five_qubit_not_css(self, capsys):
        res = run_json(capsys, "validate", "--code", FIVE)["result"]
        assert res["is_css"] is False
        assert res["k"] == 1

    def test_text_mode(self, capsys):
        rc, out, _ = run(capsys, "validate", "--code", STEANE)
        assert rc == 0
        assert "code: steane  [[7,1]]" in out
        assert "status: valid" in out
        assert out.rstrip().splitlines()[-1].startswith("elapsed: ")


class TestSyndrome:
    def test_single_x_reads_a_column(self, capsys):
        res = run_json(capsys, "syndrome", "--code", STEANE, "--error", "XIIIIII")
        r = res["result"]
        assert r["error"] == "XIIIIII"
        assert r["weight"] == 1
        assert r["syndrome"] == "000001"
        assert r["violated_generators"] == [6]

    def test_matches_library(self, capsys, shor):
        err = "XZIIYIIZI"
        r = run_json(capsys, "syndrome", "--code", SHOR, "--error", err)["result"]
        s = syndrome(shor, pauli_from_string(err))
        assert r["syndrome"] == str(s)
        assert r["weight"] == pauli_from_string(err).weight
        assert r["violated_generators"] == [
            i + 1 for i in range(8) if s.bits.get(i)
        ]

    def test_text_mentions_violations(self, capsys):
        rc, out, _ = run(capsys, "syndrome", "--code", STEANE, "--error", "IIIIIII")
        assert rc == 0
        assert "violated generators: none" in out


class TestMatrices:
    def test_matches_library(self, capsys, steane):
        res = run_json(capsys, "matrices", "--code", STEANE)["result"]
        sm = steane.syndrome_matrices
        assert res == {
            "h_x": steane.h.h_x.to01(),
            "h_z": steane.h.h_z.to01(),
            "bsm": sm.bsm.to01(),
            "psm": sm.psm.to01(),
        }

    def test_text_sections(self, capsys):
        rc, out, _ = run(capsys, "matrices", "--code", BITFLIP)
        assert rc == 0
        for section in ("h_x", "h_z", "bsm", "psm"):
            assert section in out


class TestClassify:
    def test_nondegenerate_report(self, capsys, steane):
        res = run_json(capsys, "classify", "--code", STEANE)["result"]
        rep = classify(steane, 1, with_criteria=True)
        assert res["verdict"] == "nondegenerate" == rep.verdict.value
        assert res["t"] == 1
        assert res["syndrome_count"] == 21
        assert res["expected_count"] == 21
        assert res["collision_count"] == 0
        assert res["witness"] is None
        assert res["criteria"] == {k: v.value for k, v in rep.criteria.items()}

    def test_degenerate_witness(self, capsys, shor):
        res = run_json(capsys, "classify", "--code", SHOR)["result"]
        assert res["verdict"] == "degenerate"
        w = res["witness"]
        first = pauli_from_string(w["first"])
        second = pauli_from_string(w["second"])
        assert str(syndrome(shor, first)) == str(syndrome(shor, second))
        assert w["product_in_stabilizer"] is True

    def test_explicit_t(self, capsys):
        res = run_json(capsys, "classify", "--code", STEANE, "--t", "2")["result"]
        assert res["t"] == 2
        assert res["verdict"] == "degenerate"

    def test_t_required_without_declared_distance(self, capsys, tmp_path):
        p = tmp_path / "bare.stab"
        p.write_text("XZ\nZX\n")
        rc, _, err = run(capsys, "classify", "--code", str(p))
        assert rc == 2
        assert "--t is required" in err

    @pytest.mark.parametrize("t", ["0", "99"])
    def test_t_outside_range_exits_2(self, capsys, t):
        rc, out, err = run(capsys, "classify", "--code", STEANE, "--t", t, "--json")
        assert rc == 2
        assert out == ""
        assert f"t={t} outside 1..7" in err

    def test_budget_exhaustion_exits_3(self, capsys):
        rc, out, _ = run(capsys, "classify", "--code", SHOR, "--budget", "3", "--json")
        assert rc == 3
        payload = json.loads(out)  # report still printed in full
        assert "budget_exhausted" in payload["result"]["criteria"].values()

    def test_text_lists_criteria(self, capsys):
        rc, out, _ = run(capsys, "classify", "--code", STEANE)
        assert rc == 0
        assert "verdict: nondegenerate" in out
        assert "criterion css_blocks:" in out


class TestDistance:
    def test_steane(self, capsys, steane):
        res = run_json(capsys, "distance", "--code", STEANE)["result"]
        lib = min_distance(steane, t=1)
        assert res == {
            "d": 3,
            "witness": pauli_to_string(lib.witness),
            "lower": lib.lower,
            "upper": lib.upper,
            "max_independence_order": lib.max_independence_order,
            "search_limit": 7,
            "budget_exhausted": False,
            "t": 1,
        }

    def test_declared_t_zero_degrades_to_no_bounds(self, capsys):
        # bitflip3 declares distance 1, so the file-derived radius is useless;
        # the command must fall back to the boundless path instead of failing
        res = run_json(capsys, "distance", "--code", BITFLIP)["result"]
        assert res["d"] == 1
        assert res["t"] is None
        assert res["upper"] is None

    def test_explicit_bad_t_still_rejected(self, capsys):
        rc, _, err = run(capsys, "distance", "--code", BITFLIP, "--t", "0")
        assert rc == 2
        assert "t=0" in err

    def test_limit_cuts_search(self, capsys):
        res = run_json(capsys, "distance", "--code", STEANE, "--limit", "2")["result"]
        assert res["d"] is None
        assert res["witness"] is None
        assert res["search_limit"] == 2

    def test_limit_text_line(self, capsys):
        rc, out, _ = run(capsys, "distance", "--code", STEANE, "--limit", "2")
        assert rc == 0
        assert "d: none at weight <= 2" in out

    def test_budget_exhaustion_exits_3(self, capsys):
        rc, out, _ = run(
            capsys, "distance", "--code", STEANE, "--budget", "3", "--json"
        )
        assert rc == 3
        res = json.loads(out)["result"]
        assert res["budget_exhausted"] is True
        assert res["d"] == 3  # search itself still ran


class TestStandardForm:
    def test_matches_library(self, capsys, steane):
        res = run_json(capsys, "standard-form", "--code", STEANE)["result"]
        sf = standard_form(steane)
        assert res["n"] == 7 and res["k"] == 1 and res["r"] == sf.r
        assert res["qubit_order"] == [q + 1 for q in sf.qubit_permutation]
        assert len(res["rows"]) == 6
        for row_str, row in zip(res["rows"], sf.matrix.rows):
            x, z = row_str.split("|")
            assert int(x[::-1], 2) == row & 0x7F
            assert int(z[::-1], 2) == row >> 7
        assert res["blocks"] == {
            name: getattr(sf, name).to01()
            for name in ("a1", "a2", "b", "c", "d", "e")
        }

    def test_text_blocks(self, capsys):
        rc, out, _ = run(capsys, "standard-form", "--code", SHOR)
        assert rc == 0
        assert "r: 2" in out
        assert "A1" in out and "E" in out


class TestSimulate:
    def test_frozen_run(self, capsys):
        res = run_json(
            capsys,
            "simulate", "--code", STEANE,
            "--depolarizing", "0.05", "--trials", "2000", "--seed", "42",
        )["result"]
        assert res["failures"] == 73
        assert res["trials"] == 2000
        assert res["seed"] == 42
        assert res["rate"] == 73 / 2000
        assert res["channel"] == {"p_x": 0.05 / 3, "p_y": 0.05 / 3, "p_z": 0.05 / 3}
        assert res["table"] == {"covered": 64, "num_syndromes": 64, "max_weight": 2}

    def test_matches_library(self, capsys, shor):
        res = run_json(
            capsys,
            "simulate", "--code", SHOR,
            "--px", "0.03", "--pz", "0.01", "--trials", "500", "--seed", "5",
        )["result"]
        table = build_table(shor)
        sim = run_channel(shor, PauliChannel(0.03, 0.0, 0.01), 500, 5, table=table)
        assert res["failures"] == sim.failures
        assert res["ci95"] == list(sim.ci95)

    def test_json_byte_identical_across_runs(self, capsys):
        argv = (
            "simulate", "--code", STEANE,
            "--depolarizing", "0.04", "--trials", "800", "--seed", "17",
        )
        _, out1, _ = run(capsys, *argv, "--json")
        _, out2, _ = run(capsys, *argv, "--json")
        assert out1 == out2

    def test_json_byte_identical_across_worker_counts(self, capsys):
        argv = (
            "simulate", "--code", STEANE,
            "--depolarizing", "0.04", "--trials", "900", "--seed", "23", "--json",
        )
        rc1, out1, _ = run(capsys, *argv, "--workers", "1")
        rc2, out2, _ = run(capsys, *argv, "--workers", "3")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_conflicting_channel_flags(self, capsys):
        rc, _, err = run(
            capsys,
            "simulate", "--code", STEANE,
            "--depolarizing", "0.1", "--px", "0.05",
        )
        assert rc == 2
        assert "excludes" in err

    def test_channel_required(self, capsys):
        rc, _, err = run(capsys, "simulate", "--code", STEANE)
        assert rc == 2
        assert "--depolarizing" in err

    def test_bad_probability(self, capsys):
        rc, _, err = run(capsys, "simulate", "--code", STEANE, "--px", "-0.1")
        assert rc == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("seed", [str(2**63), str(2**64), "-1"])
    def test_seed_outside_domain_exits_2(self, seed):
        proc = subprocess.run(
            [
                sys.executable, "-m", "stabcheck", "simulate", "--code", STEANE,
                "--depolarizing", "0.05", "--trials", "50", f"--seed={seed}",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: seed")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--seed", "-1"),
            ("--seed", str(2**63)),
            ("--trials", "0"),
            ("--trials", str(2**63 + 1)),  # a trial index of 2**63
            ("--workers", "0"),
        ],
    )
    def test_bad_run_args_exit_2_before_table_build(self, capsys, monkeypatch, flag, value):
        def no_table(code):
            raise AssertionError("table built for a rejected simulate")

        monkeypatch.setattr(cli, "build_table", no_table)
        rc, out, err = run(
            capsys,
            "simulate", "--code", STEANE, "--depolarizing", "0.05", f"{flag}={value}",
        )
        assert rc == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert out == ""

    def test_largest_seed_runs(self, capsys):
        res = run_json(
            capsys,
            "simulate", "--code", STEANE,
            "--depolarizing", "0.05", "--trials", "50", "--seed", str(2**63 - 1),
        )["result"]
        assert res["seed"] == 2**63 - 1

    def test_workers_env_used(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        argv = (
            "simulate", "--code", STEANE,
            "--depolarizing", "0.05", "--trials", "600", "--seed", "3", "--json",
        )
        _, out_env, _ = run(capsys, *argv)
        monkeypatch.delenv(cli.WORKERS_ENV)
        _, out_plain, _ = run(capsys, *argv)
        assert out_env == out_plain

    def test_workers_env_rejected_if_not_integer(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "two")
        rc, _, err = run(
            capsys, "simulate", "--code", STEANE, "--depolarizing", "0.05"
        )
        assert rc == 2
        assert "not an integer" in err

    @pytest.mark.parametrize(
        "env,flags,message",
        [
            ("0", (), f"{cli.WORKERS_ENV}='0' must be >= 1"),
            ("-2", (), f"{cli.WORKERS_ENV}='-2' must be >= 1"),
            ("2", ("--workers", "0"), "workers must be >= 1"),
        ],
    )
    def test_workers_below_one_names_the_input(
        self, capsys, monkeypatch, env, flags, message
    ):
        monkeypatch.setenv(cli.WORKERS_ENV, env)
        rc, out, err = run(
            capsys, "simulate", "--code", STEANE, "--depolarizing", "0.05", *flags
        )
        assert rc == 2
        assert err == f"error: {message}\n"
        assert out == ""

    def test_workers_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "garbage")
        rc, _, _ = run(
            capsys,
            "simulate", "--code", STEANE,
            "--depolarizing", "0.05", "--trials", "200", "--workers", "1",
        )
        assert rc == 0


class TestInputErrors:
    def test_missing_file(self, capsys):
        rc, out, err = run(capsys, "validate", "--code", "/nonexistent/x.stab")
        assert rc == 2
        assert err.startswith("error:")
        assert out == ""

    def test_parse_error_position(self, capsys, tmp_path):
        p = tmp_path / "bad.stab"
        p.write_text("XQ\n")
        rc, _, err = run(capsys, "validate", "--code", str(p))
        assert rc == 2
        assert "line 1, char 2" in err

    def test_invalid_generators(self, capsys, tmp_path):
        p = tmp_path / "anti.stab"
        p.write_text("XX\nZI\n")
        rc, _, err = run(capsys, "validate", "--code", str(p))
        assert rc == 2
        assert "anticommuting" in err

    @pytest.mark.parametrize("bad_file", ["missing", "letter", "anticommuting"])
    @pytest.mark.parametrize(
        "argv,workers_env",
        [
            (("validate",), None),
            (("matrices",), None),
            (("standard-form",), None),
            (("syndrome", "--error", "Q"), None),
            (("classify", "--t", "0"), None),
            (("distance", "--t", "0"), None),
            (("simulate",), None),  # no channel flag
            (("simulate", "--depolarizing", "0.05", "--trials", "0"), None),
            (("simulate", "--depolarizing", "0.05"), "two"),
        ],
    )
    def test_code_file_error_comes_first(
        self, capsys, monkeypatch, tmp_path, bad_file, argv, workers_env
    ):
        # each command's own arguments are bad too; the file is named first
        path = tmp_path / f"{bad_file}.stab"
        if bad_file == "letter":
            path.write_text("XQ\n")
        elif bad_file == "anticommuting":
            path.write_text("XI\nZI\n")
        with pytest.raises((OSError, ValueError)) as file_error:
            sc.parse_code_file(path)
        if workers_env is not None:
            monkeypatch.setenv(cli.WORKERS_ENV, workers_env)
        rc, out, err = run(capsys, *argv, "--code", str(path))
        assert rc == 2
        assert err == f"error: {file_error.value}\n"
        assert out == ""

    def test_bad_error_operator(self, capsys):
        rc, _, err = run(capsys, "syndrome", "--code", STEANE, "--error", "XQZ")
        assert rc == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("command,budget", [("classify", "-3"), ("distance", "-1")])
    def test_negative_budget_exits_2(self, capsys, command, budget):
        rc, out, err = run(capsys, command, "--code", STEANE, "--budget", budget)
        assert rc == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command", ["classify", "distance"])
    def test_zero_budget_exits_3(self, capsys, command):
        rc, _, _ = run(capsys, command, "--code", STEANE, "--budget", "0")
        assert rc == 3

    def test_non_ascii_distance_names_the_line(self, capsys, tmp_path):
        p = tmp_path / "sup.stab"
        p.write_text("XZZXI\nIXZZX\nXIXZZ\n# distance: \u00b2\nZXIXZ\n")
        rc, out, err = run(capsys, "validate", "--code", str(p))
        assert rc == 2
        assert err.startswith("error: line 4:")
        assert "distance must be a positive integer" in err
        assert out == ""

    @pytest.mark.skipif(not Path("/dev/zero").exists(), reason="no /dev/zero")
    def test_endless_file_exits_2(self, capsys):
        rc, out, err = run(capsys, "validate", "--code", "/dev/zero")
        assert rc == 2
        assert err.startswith("error: file is longer than")
        assert "Traceback" not in err
        assert out == ""

    def test_oversized_decoder_table_exits_2(self, capsys, tmp_path):
        # 32 generators: up to 2**32 table entries, refused before the fill
        p = tmp_path / "rep33.stab"
        p.write_text("".join("I" * i + "ZZ" + "I" * (31 - i) + "\n" for i in range(32)))
        rc, out, err = run(
            capsys, "simulate", "--code", str(p), "--depolarizing", "0.01",
            "--trials", "10", "--workers", "1",
        )
        assert rc == 2
        assert err.startswith("error: decoder table could hold")
        assert out == ""


def call(capsys, *argv: str) -> tuple[int, str, str]:
    """Like run, but an argparse exit (--help, --version, a usage error)
    returns its status instead of raising SystemExit."""
    try:
        rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestParserReuse:
    # each request after one that set the flags it leaves out
    SEQUENCE = [
        ("classify", "--code", STEANE, "--t", "2", "--budget", "5", "--json"),
        ("classify", "--code", STEANE, "--t", "1", "--json"),
        ("distance", "--code", STEANE, "--limit", "2", "--t", "1", "--json"),
        ("distance", "--code", STEANE, "--json"),
        (
            "simulate", "--code", STEANE, "--depolarizing", "0.05",
            "--seed", "9", "--workers", "1", "--json",
        ),
        ("simulate", "--code", STEANE, "--depolarizing", "0.05", "--json"),
        ("validate", "--json"),  # usage error: --code missing
        ("validate", "--code", STEANE, "--json"),
        ("--version",),
        ("validate", "--code", STEANE, "--json"),
    ]

    def test_outputs_match_a_fresh_parser(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
        fresh = []
        for argv in self.SEQUENCE:
            cli._build_parser.cache_clear()
            fresh.append(call(capsys, *argv))
        cli._build_parser.cache_clear()
        shared = [call(capsys, *argv) for argv in self.SEQUENCE]
        assert shared == fresh
        assert [rc for rc, _, _ in shared] == [3, 0, 0, 0, 0, 0, 2, 0, 0, 0]
        assert cli._build_parser.cache_info().misses == 1

    def test_help_follows_columns(self, capsys, monkeypatch):
        cli._build_parser.cache_clear()
        outs = []
        for columns in ("50", "150", "50"):
            monkeypatch.setenv("COLUMNS", columns)
            rc, out, _ = call(capsys, "simulate", "--help")
            assert rc == 0
            outs.append(out)
        narrow, wide, narrow_again = outs
        assert narrow == narrow_again != wide
        assert max(len(line) for line in narrow.splitlines()) <= 50
        assert cli._build_parser.cache_info().misses == 1


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stabcheck", "validate", "--code", STEANE, "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["valid"] is True

    @pytest.mark.parametrize(
        "args,unbuffered",
        [
            (["matrices", "--code", STEANE, "--json"], False),
            (["matrices", "--code", STEANE, "--json"], True),
            (["--version"], False),
            (["--version"], True),
            (["--help"], True),
        ],
    )
    def test_closed_reader_exits_1_quietly(self, args, unbuffered):
        # buffered, the broken pipe surfaces at the flush; unbuffered, in the
        # write itself (argparse's own writes included, for --help and --version)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "stabcheck", *args],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_console_script(self):
        # Run the declared [project.scripts] target the way the wrapper that
        # an install generates does, so no install is needed.
        module, attr = declared_console_script("stabcheck")
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "--version"],
            capture_output=True,
            text=True,
        )
        assert_prints_version(proc)

    def test_import_loads_no_process_pool(self):
        # concurrent.futures is imported only when `run` starts a pool
        code = (
            "import sys, stabcheck, stabcheck.cli; "
            "print([m for m in sys.modules if m.startswith('concurrent')])"
        )
        env = {**os.environ, "PYTHONPATH": str(PYPROJECT.parent / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.skipif(
        shutil.which("stabcheck") is None,
        reason="stabcheck console script not installed",
    )
    def test_installed_console_script(self):
        proc = subprocess.run(
            ["stabcheck", "--version"], capture_output=True, text=True
        )
        assert_prints_version(proc)
