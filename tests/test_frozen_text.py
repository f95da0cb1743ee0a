"""Frozen text reports: the cases of `test_frozen_json.py` without `--json`.

Each case pins the exit code and the SHA-256 of stdout with its final
`elapsed:` line dropped, the one part of the text rendering that varies
from run to run.
"""

from __future__ import annotations

import hashlib
import re

import pytest

from conftest import FIXTURES_DIR
from stabcheck import cli
from test_frozen_json import ARGS, FROZEN, QUBITS

TEXT_FROZEN = {
    ("steane", "validate"): (0, "bc8c8c220b2ab364e815fa272e6351bee289c6bf1e6e05fd2c813e02c7be9d72"),
    ("steane", "matrices"): (0, "346abd8cdd446269330a07cd1038810eb7ecd01fa410d6972ae9c6d2b94c67a9"),
    ("steane", "standard-form"): (0, "0b184321f5f5080f4dce3d2e3818a2baf2d9cd1d96638c825f9c221151a5ffef"),
    ("steane", "syndrome"): (0, "c930bdc4e896dfce7ad11084d075b65315fd6a31adff139f1aa7631ccd7716c0"),
    ("steane", "classify"): (0, "b7e7fc6ac432d620aca5148c8c04be921c48819d78a720a3ff65be3f028cbb55"),
    ("steane", "classify-budget"): (3, "4ee0860cbf659ba5baec6f22f0f817168ed1e9d977d4b4da237faeedb20d8038"),
    ("steane", "distance"): (0, "de73c84f92c432c3cd247b15546b3abfb758bda82a2e69a051a3eee275efd461"),
    ("steane", "distance-budget"): (3, "c14e3100b40b68e9822e3dd7c57a093b19ca75b67b69d160b9ceb59c3d2500ff"),
    ("steane", "simulate"): (0, "01d0e25ea365aebc231a96dde79d4ebb8c2c7aaa31a934740b0e878eae7c732c"),
    ("shor", "validate"): (0, "c4773ce4ec450fe05daeb1542542f564d850167c4ed5f609bc1ca143d6421745"),
    ("shor", "matrices"): (0, "3f6409b9202fd27cdaff62f527e2b23067ce64764a67f5aab7175b7a75737a97"),
    ("shor", "standard-form"): (0, "0833574c1033602fced9ddfd76cc067f9098482d05f6a1ee34d3522c47eb8adb"),
    ("shor", "syndrome"): (0, "fdac26600cee19a93715ba352c69a6c2391109e230e4811bb5a6875cd8e1b2f7"),
    ("shor", "classify"): (0, "2d1314943e03e3f76b978cea9004680da6532f05cc12a62ec271d60d228925c3"),
    ("shor", "classify-budget"): (0, "47d62d17a3662ae803d437f2c8985748f1d75eccf463faac513f86896f52295a"),
    ("shor", "distance"): (0, "9cf6094f5bd517745cbe21e2de7aff2359b5db8df484072bfc19f02af3457776"),
    ("shor", "distance-budget"): (3, "8312615f20a1f24d829df46b60fe05a8c149038fc9c5558967596b71188764de"),
    ("shor", "simulate"): (0, "78c7eb5048f840d1277735f8f3f804a0c122bc3605c85a4f0be0090082a63534"),
    ("five_qubit", "validate"): (0, "b0a7e8c3c759202f1ec8ccbc930a4b0222a49855168d65454e315f9d57e7021f"),
    ("five_qubit", "matrices"): (0, "08bb0af9a6c127a19d393e97b96b883d46628361aa12751a8ec63f2ea7b3f204"),
    ("five_qubit", "standard-form"): (0, "3250322faaaba667aa432d55522f731c90a1fe5f600fb55d57be7af70f9f08ec"),
    ("five_qubit", "syndrome"): (0, "4b297eed5d576aa6d7ac06bc17cb4b2f7f177f3451c3f2452270b5cd3055fefe"),
    ("five_qubit", "classify"): (0, "4cbafe00ec0bc0d31b26efea73f8aba6443225fc1d2cd6af8d0b60672cfcc36b"),
    ("five_qubit", "classify-budget"): (3, "c6c077993ed459ed852bc63d5caf10a6016b68247d55c73919d8062138dd14c7"),
    ("five_qubit", "distance"): (0, "3e50c724de66e20b83f434db31ba65562545af8c91cdb698b6f982104237f53d"),
    ("five_qubit", "distance-budget"): (3, "027698a1b3166df4e00e61876edabf4c8bad700a925a715996850b1db0af32c8"),
    ("five_qubit", "simulate"): (0, "afd3393981e1186af4f1765c74410c2ce48c1788174164a7d394bae66646e931"),
    ("bitflip3", "validate"): (0, "b32f6b503fb3480572047977dbeab9323b9200f68f2785f325a4b5250176e4c1"),
    ("bitflip3", "matrices"): (0, "29b3409e8a9fa9c323cf3879f6c9344b51e44a856e597eae6c84b0c26a13ebab"),
    ("bitflip3", "standard-form"): (0, "978be3b3fad47564363602b508a272a156b049dbf8cb63cb79bab15f6e8ccadd"),
    ("bitflip3", "syndrome"): (0, "9548add69e812597e5c08cbcc0afa8af9d8f4e0d9a2a4825db00a11cd5771073"),
    # declared distance 1 gives t=0: exit 2 and nothing on stdout
    ("bitflip3", "classify"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bitflip3", "classify-budget"): (0, "61460fa71e8dd214289bd749e067db228b9282fc63ad02eb80f54cad5fff78a9"),
    ("bitflip3", "distance"): (0, "2058d7091c6b918a5d106513b58af3ea1e520b8c17036ea329fa71d3f636c3f4"),
    ("bitflip3", "distance-budget"): (0, "2058d7091c6b918a5d106513b58af3ea1e520b8c17036ea329fa71d3f636c3f4"),
    ("bitflip3", "simulate"): (0, "451cd47d76f7c39e6e0b2f2ef878bd954285dbac0a6dca432d4732f76a7b4114"),
}

_ELAPSED = re.compile(r"elapsed: \d+\.\d{3}s\n\Z")


@pytest.mark.parametrize("fixture,case", sorted(FROZEN))
def test_text_report_is_frozen(capsys, fixture, case):
    command, *extra = ARGS[case]
    extra = ["X" * QUBITS[fixture] if a is None else a for a in extra]
    path = str(FIXTURES_DIR / f"{fixture}.stab")
    rc = cli.main([command, "--code", path, *extra])
    out = capsys.readouterr().out
    if out:
        elapsed = _ELAPSED.search(out)
        assert elapsed is not None and out.startswith("code: "), out
        out = out[: elapsed.start()]
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == TEXT_FROZEN[fixture, case]
