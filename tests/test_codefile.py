from __future__ import annotations

from pathlib import Path

import pytest

import stabcheck as sc
from conftest import FIXTURES_DIR, generator_strings
from stabcheck import codefile
from stabcheck import (
    BINARY_MATRIX,
    PAULI_STRINGS,
    CodeFileError,
    NonCommutingGeneratorsError,
    parse_code_file,
    read_code_file,
)


def write(tmp_path: Path, text: str) -> Path:
    p = tmp_path / "code.stab"
    p.write_text(text)
    return p


class TestPauliFormat:
    def test_minimal(self, tmp_path):
        cf = read_code_file(write(tmp_path, "XZ\nZX\n"))
        assert cf.format == PAULI_STRINGS
        assert cf.n == 2
        assert cf.label is None
        assert cf.designed_distance is None
        assert [sc.pauli_to_string(g) for g in cf.generators] == ["XZ", "ZX"]

    def test_phases_discarded(self, tmp_path):
        cf = read_code_file(write(tmp_path, "-iXZ\n+ZX\niYY\n"))
        assert [sc.pauli_to_string(g) for g in cf.generators] == ["XZ", "ZX", "YY"]

    def test_comments_and_blanks(self, tmp_path):
        text = "# a full-line comment\n\nXZ   # trailing comment\n\nZX\n"
        cf = read_code_file(write(tmp_path, text))
        assert len(cf.generators) == 2

    def test_directives(self, tmp_path):
        text = "# label: toy\n# distance: 3\nXZ\nZX\n"
        cf = read_code_file(write(tmp_path, text))
        assert cf.label == "toy"
        assert cf.designed_distance == 3

    def test_later_directive_wins(self, tmp_path):
        cf = read_code_file(write(tmp_path, "# label: a\nXZ\n# label: b\n"))
        assert cf.label == "b"

    def test_empty_label_means_none(self, tmp_path):
        cf = read_code_file(write(tmp_path, "# label:\nXZ\n"))
        assert cf.label is None

    def test_nondirective_comment_ignored(self, tmp_path):
        cf = read_code_file(write(tmp_path, "XZ  # label-ish but not label:\n"))
        assert cf.label is None
        assert len(cf.generators) == 1


class TestBinaryFormat:
    def test_basic(self, tmp_path):
        text = "n=3 rows=2\n1 0 0 0 0 1\n0 1 0 0 0 0\n"
        cf = read_code_file(write(tmp_path, text))
        assert cf.format == BINARY_MATRIX
        assert cf.n == 3
        # x bits come first and index qubits left to right
        assert [sc.pauli_to_string(g) for g in cf.generators] == ["XIZ", "IXI"]

    def test_optional_separator(self, tmp_path):
        text = "n=3 rows=1\n1 1 0 | 0 1 0\n"
        cf = read_code_file(write(tmp_path, text))
        assert sc.pauli_to_string(cf.generators[0]) == "XYI"

    def test_header_spacing(self, tmp_path):
        cf = read_code_file(write(tmp_path, "n = 2   rows = 1\n1 0 0 1\n"))
        assert cf.n == 2

    def test_directives_apply(self, tmp_path):
        text = "# label: bin\n# distance: 2\nn=2 rows=1\n1 1 0 0\n"
        cf = read_code_file(write(tmp_path, text))
        assert (cf.label, cf.designed_distance) == ("bin", 2)

    def test_matches_pauli_spelling(self, tmp_path, steane):
        rows = []
        for g in steane.h.generators:
            bits = [str(g.x.get(j)) for j in range(7)]
            bits += [str(g.z.get(j)) for j in range(7)]
            rows.append(" ".join(bits))
        text = "n=7 rows=6\n" + "\n".join(rows) + "\n"
        code = parse_code_file(write(tmp_path, text))
        assert generator_strings(code) == generator_strings(steane)


class TestFixtureFiles:
    @pytest.mark.parametrize(
        "fname,factory",
        [
            ("steane.stab", sc.steane),
            ("shor.stab", sc.shor),
            ("five_qubit.stab", sc.five_qubit),
            ("bitflip3.stab", sc.three_qubit_bit_flip),
        ],
    )
    def test_file_matches_builtin(self, fname, factory):
        code = parse_code_file(FIXTURES_DIR / fname)
        built = factory()
        assert generator_strings(code) == generator_strings(built)
        assert code.label == built.label
        assert code.designed_distance == built.designed_distance
        assert code.default_t == built.default_t


class TestErrors:
    def test_bad_letter_position(self, tmp_path):
        with pytest.raises(CodeFileError) as exc:
            read_code_file(write(tmp_path, "XQ\n"))
        assert exc.value.line == 1
        assert exc.value.column == 2
        assert str(exc.value).startswith("line 1, char 2:")

    def test_phase_token_counts_toward_position(self, tmp_path):
        with pytest.raises(CodeFileError) as exc:
            read_code_file(write(tmp_path, "XZ\n-iXQZ\n"))
        assert (exc.value.line, exc.value.column) == (2, 4)

    # the message names the file column only, not the string's own position
    @pytest.mark.parametrize(
        "text,column", [("   XQ\n", 5), ("  -iXQZ\n", 6)]
    )
    def test_bad_letter_message_names_one_column(self, tmp_path, text, column):
        with pytest.raises(CodeFileError) as exc:
            read_code_file(write(tmp_path, text))
        assert str(exc.value) == f"line 1, char {column}: unexpected character 'Q'"

    def test_mixed_lengths(self, tmp_path):
        with pytest.raises(CodeFileError) as exc:
            read_code_file(write(tmp_path, "XZ\nXZX\n"))
        assert exc.value.line == 2
        assert exc.value.column is None
        assert "2" in str(exc.value) and "3" in str(exc.value)

    def test_empty_file(self, tmp_path):
        with pytest.raises(CodeFileError, match="no generators"):
            read_code_file(write(tmp_path, ""))

    def test_comments_only(self, tmp_path):
        with pytest.raises(CodeFileError) as exc:
            read_code_file(write(tmp_path, "# nothing\n# here\n"))
        assert exc.value.line == 2

    def test_directive_on_generator_line(self, tmp_path):
        with pytest.raises(CodeFileError, match="own line") as exc:
            read_code_file(write(tmp_path, "XZ # label: sneaky\n"))
        assert exc.value.line == 1

    # "\u00b2" and "\u0663" pass str.isdigit; int() rejects the first and
    # reads the second as 3
    @pytest.mark.parametrize("value", ["abc", "0", "-1", "2.5", "\u00b2", "\u0663"])
    def test_bad_distance(self, tmp_path, value):
        with pytest.raises(CodeFileError, match="distance"):
            read_code_file(write(tmp_path, f"# distance: {value}\nXZ\n"))

    def test_binary_bad_bit(self, tmp_path):
        with pytest.raises(CodeFileError) as exc:
            read_code_file(write(tmp_path, "n=2 rows=1\n1 0 2 0\n"))
        assert exc.value.line == 2
        assert exc.value.column == 5

    # columns count from the start of the file's line, not of its text
    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("n=2 rows=1\n   0 0 1 2\n", 2, 10),
            ("   XQ\n", 1, 5),
            ("n=2 rows=1\n0 0 | 1 |\n", 2, 9),  # the second "|", not the first
        ],
    )
    def test_column_counts_leading_blanks_and_repeats(self, tmp_path, text, line, column):
        with pytest.raises(CodeFileError) as exc:
            read_code_file(write(tmp_path, text))
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value).startswith(f"line {line}, char {column}:")

    def test_binary_wrong_token_count(self, tmp_path):
        with pytest.raises(CodeFileError, match="expected 4 bits"):
            read_code_file(write(tmp_path, "n=2 rows=1\n1 0 0\n"))

    def test_binary_misplaced_separator(self, tmp_path):
        with pytest.raises(CodeFileError, match="bits"):
            read_code_file(write(tmp_path, "n=2 rows=1\n1 | 0 0 1\n"))

    def test_binary_missing_rows(self, tmp_path):
        with pytest.raises(CodeFileError, match="expected 3 rows"):
            read_code_file(write(tmp_path, "n=2 rows=3\n1 0 0 1\n"))

    def test_binary_extra_rows(self, tmp_path):
        with pytest.raises(CodeFileError, match="expected 1 rows"):
            read_code_file(write(tmp_path, "n=2 rows=1\n1 0 0 1\n0 1 1 0\n"))

    @pytest.mark.parametrize("header", ["n=0 rows=1", "n=2 rows=0"])
    def test_binary_degenerate_header(self, tmp_path, header):
        with pytest.raises(CodeFileError, match="at least 1"):
            read_code_file(write(tmp_path, f"{header}\n\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_code_file(tmp_path / "absent.stab")

    def test_size_cap(self, tmp_path, monkeypatch):
        text = "# label: rep3\nZZI\nIZZ\n"
        monkeypatch.setattr(codefile, "MAX_CODE_FILE_CHARS", len(text))
        assert read_code_file(write(tmp_path, text)).n == 3
        with pytest.raises(CodeFileError, match="longer than") as exc:
            read_code_file(write(tmp_path, text + "\n"))
        assert exc.value.line is None


class TestValidationPassThrough:
    def test_anticommuting_generators(self, tmp_path):
        path = write(tmp_path, "XX\nZI\n")
        # parsing alone does not validate
        assert len(read_code_file(path).generators) == 2
        with pytest.raises(NonCommutingGeneratorsError):
            parse_code_file(path)

    def test_dependent_generators(self, tmp_path):
        path = write(tmp_path, "XX\nZZ\nYY\n")
        with pytest.raises(sc.DependentGeneratorsError):
            parse_code_file(path)

    def test_to_code_carries_metadata(self, tmp_path):
        path = write(tmp_path, "# label: pair\n# distance: 2\nXX\nZZ\n")
        code = parse_code_file(path)
        assert code.label == "pair"
        assert code.designed_distance == 2
        assert code.k == 0
