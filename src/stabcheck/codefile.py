"""Reading stabilizer codes from text files.

Two formats are supported and auto-detected:

pauli_strings
    One generator per line, letters I/X/Y/Z, leftmost letter = qubit 1.
    Leading phase tokens (+, -, i, +i, -i) are accepted and discarded.
    Blank lines are skipped; '#' starts a comment (whole line or trailing).
    Two comment directives are recognized and feed code metadata:

        # label: steane
        # distance: 3

binary_matrix
    Header line "n=<n> rows=<m>", then m rows of 2n space-separated bits,
    read as x_1 .. x_n z_1 .. z_n.  A single "|" token may separate the
    halves.  Blank lines, comments and directives work as above.

Parse errors raise CodeFileError with 1-based line (and column when it
points at a specific character); a file longer than MAX_CODE_FILE_CHARS is
refused whole.  Validation failures (non-commuting or dependent generators,
mixed lengths) propagate unchanged from validate().
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .stabilizer import StabilizerCode, validate
from .symplectic import PauliOperator, PauliParseError, pauli_from_string

__all__ = [
    "PAULI_STRINGS",
    "BINARY_MATRIX",
    "CodeFile",
    "CodeFileError",
    "read_code_file",
    "parse_code_file",
]

PAULI_STRINGS = "pauli_strings"
BINARY_MATRIX = "binary_matrix"

_HEADER_RE = re.compile(r"^n\s*=\s*(\d+)\s+rows\s*=\s*(\d+)$")
_DIRECTIVE_RE = re.compile(r"^(label|distance)\s*:\s*(.*)$")
_DIGITS_RE = re.compile(r"[0-9]+")  # ASCII only: str.isdigit accepts "²"

# Longest file read, in characters (bytes for ASCII).  Far above any code
# validate finishes on: a 16 MB file (a 4,000-qubit chain of ZZ checks)
# already takes about 15 s, and time grows faster than size.  The cap only
# stops a device such as /dev/zero from being read until memory runs out.
MAX_CODE_FILE_CHARS = 64 * 2**20

# Characters per read: one read of the whole cap would ask for a 64 MB
# buffer on every file.
_READ_PIECE = 2**16


class CodeFileError(ValueError):
    """Parse failure with file position; line and column are 1-based or None.

    line is None only for a failure of the whole file (one past the size cap).
    """

    def __init__(self, message: str, line: int | None, column: int | None = None):
        if line is None:
            super().__init__(message)
        else:
            at = f"line {line}" if column is None else f"line {line}, char {column}"
            super().__init__(f"{at}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class CodeFile:
    """Parsed but not yet validated code description."""

    format: str
    label: str | None
    n: int
    generators: tuple[PauliOperator, ...]
    designed_distance: int | None = None

    def to_code(self) -> StabilizerCode:
        """Validate and wrap; validation errors propagate verbatim."""
        return StabilizerCode(
            validate(self.generators),
            label=self.label,
            designed_distance=self.designed_distance,
        )


def parse_code_file(path: str | Path) -> StabilizerCode:
    """Read, parse and validate a code file in either supported format."""
    return read_code_file(path).to_code()


def read_code_file(path: str | Path) -> CodeFile:
    """Parse a code file into a CodeFile without running validation."""
    pieces: list[str] = []
    left = MAX_CODE_FILE_CHARS + 1  # one past the cap shows an oversized file
    with open(path) as f:
        while left and (piece := f.read(min(left, _READ_PIECE))):
            pieces.append(piece)
            left -= len(piece)
    text = "".join(pieces)
    if len(text) > MAX_CODE_FILE_CHARS:
        raise CodeFileError(
            f"file is longer than {MAX_CODE_FILE_CHARS} characters", None
        )
    lines = text.splitlines()

    label: str | None = None
    distance: int | None = None
    body: list[tuple[int, int, str]] = []  # line, offset in it, stripped text

    for lineno, raw in enumerate(lines, start=1):
        comment = None
        if "#" in raw:
            raw, comment = raw.split("#", 1)
        stripped = raw.strip()
        if comment is not None:
            m = _DIRECTIVE_RE.match(comment.strip())
            if m:
                if stripped:
                    raise CodeFileError(
                        "directive must be on its own line", lineno
                    )
                key, value = m.group(1), m.group(2).strip()
                if key == "label":
                    label = value or None
                else:
                    if not _DIGITS_RE.fullmatch(value) or int(value) < 1:
                        raise CodeFileError(
                            f"distance must be a positive integer, got {value!r}",
                            lineno,
                        )
                    distance = int(value)
                continue
        if stripped:
            body.append((lineno, len(raw) - len(raw.lstrip()), stripped))

    if not body:
        raise CodeFileError("no generators found", max(len(lines), 1))

    first_line, _, first = body[0]
    header = _HEADER_RE.match(first)
    if header is not None:
        return _parse_binary(header, body, label, distance, first_line)
    return _parse_pauli(body, label, distance)


def _parse_pauli(
    body: list[tuple[int, int, str]], label: str | None, distance: int | None
) -> CodeFile:
    gens: list[PauliOperator] = []
    n: int | None = None
    for lineno, offset, line in body:
        try:
            p = pauli_from_string(line)
        except PauliParseError as exc:
            col = None if exc.position is None else offset + exc.position
            raise CodeFileError(exc.reason, lineno, col) from exc
        if n is None:
            n = p.n
        elif p.n != n:
            raise CodeFileError(
                f"generator has {p.n} qubits, earlier lines have {n}", lineno
            )
        gens.append(p)
    assert n is not None
    return CodeFile(PAULI_STRINGS, label, n, tuple(gens), distance)


def _parse_binary(
    header: re.Match[str],
    body: list[tuple[int, int, str]],
    label: str | None,
    distance: int | None,
    header_line: int,
) -> CodeFile:
    n = int(header.group(1))
    rows = int(header.group(2))
    if n < 1:
        raise CodeFileError("n must be at least 1", header_line)
    if rows < 1:
        raise CodeFileError("rows must be at least 1", header_line)
    data = body[1:]
    if len(data) != rows:
        raise CodeFileError(
            f"expected {rows} rows after the header, found {len(data)}",
            data[-1][0] if data else header_line,
        )
    gens: list[PauliOperator] = []
    for lineno, offset, line in data:
        # the tokens of line.split(), each with its offset
        tokens = [(m.group(), m.start()) for m in re.finditer(r"\S+", line)]
        if len(tokens) == 2 * n + 1 and tokens[n][0] == "|":
            del tokens[n]
        if len(tokens) != 2 * n:
            raise CodeFileError(
                f"expected {2 * n} bits, found {len(tokens)} tokens", lineno
            )
        bits: list[int] = []
        for tok, start in tokens:
            if tok not in ("0", "1"):
                col = offset + start + 1
                raise CodeFileError(f"bit must be 0 or 1, got {tok!r}", lineno, col)
            bits.append(int(tok))
        x = sum(b << i for i, b in enumerate(bits[:n]))
        z = sum(b << i for i, b in enumerate(bits[n:]))
        gens.append(PauliOperator.from_masks(n, x, z))
    return CodeFile(BINARY_MATRIX, label, n, tuple(gens), distance)
