"""Frozen `--json` reports of every CLI subcommand on the bundled fixtures.

Each case pins the exit code and the SHA-256 of stdout.  The digests were
recorded before the analysis core was consolidated; any change in a report
byte, budgeted outcome or exit status shows up here.
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import FIXTURES_DIR
from stabcheck import cli

QUBITS = {"steane": 7, "shor": 9, "five_qubit": 5, "bitflip3": 3}

ARGS = {
    "validate": ("validate",),
    "matrices": ("matrices",),
    "standard-form": ("standard-form",),
    "syndrome": ("syndrome", "--error", None),  # None: X on every qubit
    "classify": ("classify",),
    "classify-budget": ("classify", "--t", "2", "--budget", "30"),
    "distance": ("distance",),
    "distance-budget": ("distance", "--t", "2", "--budget", "40"),
    "simulate": (
        "simulate", "--depolarizing", "0.05", "--trials", "500", "--seed", "3",
    ),
}

FROZEN = {
    ("steane", "validate"): (0, "b375f9aae7b4cb09d6c641ac031bd8d75a908afc2eac00cf2ceb6b4cb54651e2"),
    ("steane", "matrices"): (0, "6048a57d759230ac8d3fc19beb63c505f006d01e630f8079cb282cb928785431"),
    ("steane", "standard-form"): (0, "e8b0542da1cb054962bbc57b7b964435d623c08cac8618468ac30fb2bc1eb465"),
    ("steane", "syndrome"): (0, "8c7c0635bd5991362c9dc0381d277290ab7a85d2d3f3cd338ab8d19c26882243"),
    ("steane", "classify"): (0, "224b6755739eb2bbe43b2cb42f4584b5c74fe72e2cf2ffdf95208ac12b6bf1dc"),
    ("steane", "classify-budget"): (3, "72d8d9dd5177033eb26ab91e05a74ca9935b9baa0d957caec0b4c3164a532cc5"),
    ("steane", "distance"): (0, "a142f8f4af1a4247314a299f44aa2ba2cb326362007f7fd1474f2661f4053121"),
    ("steane", "distance-budget"): (3, "54f94bd28af6d5a7a3538c268b1b099dd609e9922f17fbef4997596bf0af3816"),
    ("steane", "simulate"): (0, "7513f43a01e09f2787934814425c9a4869d918737d7ec1c6874584adf4d4028e"),
    ("shor", "validate"): (0, "1eb63b51d6bd349591861372af63960be02610aa234370bfd98da75b768b1cf2"),
    ("shor", "matrices"): (0, "0a088045303675b329780f57764d89b5532621c5422629a06436d9e84b45cd45"),
    ("shor", "standard-form"): (0, "bae71d41493e6f36b0043b519fb0838e755c6ebb84daa3afc09c0d9e6c58d4f8"),
    ("shor", "syndrome"): (0, "96fcd32ed40f4d48e5a397b3a7b930727cc5b42e601c9797ae1235f0280468dc"),
    ("shor", "classify"): (0, "692f3df98bcf4c2daa17919161f06dbaa91f7f42b2578d22261c808291141891"),
    ("shor", "classify-budget"): (0, "d8dfc90f1fcada03b1e32bd517333aeb1850ddcf02f0fa1cfda3ddd497aed626"),
    ("shor", "distance"): (0, "9c93d263d372fe3027789292cff7cf7b49db478b1c8cde8387aa0c6164077cc0"),
    ("shor", "distance-budget"): (3, "d1ccaf13f3a387416d7e5dc2172a98b98c459b87b14200dc2a815a0347d32047"),
    ("shor", "simulate"): (0, "05ec81422007d53412ff8b932a7b386d01985755899337dd5456cc232c5bd1a2"),
    ("five_qubit", "validate"): (0, "b67d8dd48cbc49e76f6d0ef70484edf0500bdf1bca4fdb7518d68d372b2a74f2"),
    ("five_qubit", "matrices"): (0, "0a744a133a67f4c7be0f474fb08e245f8be70ace9ba6c854a15ed09d68cc6d49"),
    ("five_qubit", "standard-form"): (0, "58e16c44636c3dc27be9355afe76ef2e74b720ffb2cbbcbe1ffe50266fc21a29"),
    ("five_qubit", "syndrome"): (0, "dbdeb95fb81231db00a209edafb80329bbb0aa9f2ae202ed9ccaad5da6d877c7"),
    ("five_qubit", "classify"): (0, "eea523dbd1bbc3a8c35c15e3a0e645a9dc364a6f9806a5350233f67af6266e23"),
    ("five_qubit", "classify-budget"): (3, "072b6d9bfddc00b6a159476909165b1cf30c96a5fb77d89b858dafe0091e8cb8"),
    ("five_qubit", "distance"): (0, "a1098f98f3414880194b564c291da9585a978cd102c0f022e09308dd9da8cd9c"),
    ("five_qubit", "distance-budget"): (3, "f8544ee89e1889e4eb58673bf5ed93b0a1faa4846720bb2818b878acf58b78be"),
    ("five_qubit", "simulate"): (0, "0ad3bd4565b3305a40e3f3f2450d4e71fe192a7577eb19d272f31edf2f3b09ca"),
    ("bitflip3", "validate"): (0, "d982043ff2625b2ef055201462475e05a41e5fe3d7d83245030e00e2f835605e"),
    ("bitflip3", "matrices"): (0, "618c25b3a99298e0eebd787dc9f6e8dd8dda0afc31952163fd410a33a2fe1fc3"),
    ("bitflip3", "standard-form"): (0, "9ae0149209b21da2f60e0d4e71f0065006bebce2b285a2fe8209881efba97fde"),
    ("bitflip3", "syndrome"): (0, "805d01936744c6d5e90d75700d60c359777644f14afc4209e40bff6261112bea"),
    # declared distance 1 gives t=0: exit 2 and nothing on stdout
    ("bitflip3", "classify"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bitflip3", "classify-budget"): (0, "f669799d8f9b0901efed03dd1939de14195b7cca82d700bc92e80b4cfb2dd433"),
    ("bitflip3", "distance"): (0, "9b8818de3b9416dbb8691b4fe43295b63788837c48f40de1cbcb91c1676aabde"),
    ("bitflip3", "distance-budget"): (0, "cf51f3bb1a4a2cf4f2c51ae605b1e3253f4e5ff5a14e4dda8becb0289350314f"),
    ("bitflip3", "simulate"): (0, "9dd84d153506a807ee7dfd73a5eae8f75e3d3aa8884812029a0df2ea7bcdf60e"),
}


@pytest.mark.parametrize("fixture,case", sorted(FROZEN))
def test_json_report_is_frozen(capsys, fixture, case):
    command, *extra = ARGS[case]
    extra = ["X" * QUBITS[fixture] if a is None else a for a in extra]
    path = str(FIXTURES_DIR / f"{fixture}.stab")
    rc = cli.main([command, "--code", path, *extra, "--json"])
    out = capsys.readouterr().out
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == FROZEN[fixture, case]
