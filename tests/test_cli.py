"""Tests for the repro-eyeball CLI."""

import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser, main

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--preset", "huge", "table1"])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.preset == "small"
        assert args.seed == 5
        assert not args.strict


def _readme_flag_table():
    """Flag names from README's "### Global flags" table."""
    text = README.read_text()
    match = re.search(
        r"### Global flags\n(.*?)\n## ", text, flags=re.DOTALL
    )
    assert match, "README.md lost its '### Global flags' table"
    flags = []
    for line in match.group(1).splitlines():
        if not line.startswith("|") or line.startswith("|---"):
            continue
        cell = line.split("|")[1]
        found = re.match(r"\s*`(--[a-z-]+)", cell)
        if found:
            flags.append(found.group(1))
    return flags


class TestReadmeFlagTable:
    """README's global-flag table is locked to build_parser(): every
    documented flag must exist, every real flag must be documented —
    the same lock-step discipline as the span-taxonomy doc test."""

    #: Flags argparse adds or that are not run-behaviour switches.
    EXEMPT = {"--help", "--version"}

    def _parser_flags(self):
        parser = build_parser()
        return {
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option not in self.EXEMPT
        }

    def test_table_matches_parser(self):
        documented = _readme_flag_table()
        assert len(documented) == len(set(documented)), "duplicate rows"
        assert set(documented) == self._parser_flags(), (
            "README '### Global flags' table and build_parser() "
            "drifted apart; update them together"
        )

    def test_flag_rows_carry_headers_not_prose(self):
        # Every row's first cell is exactly one backticked flag spec.
        text = README.read_text()
        match = re.search(
            r"### Global flags\n(.*?)\n## ", text, flags=re.DOTALL
        )
        rows = [
            line for line in match.group(1).splitlines()
            if line.startswith("| `--")
        ]
        assert len(rows) == len(_readme_flag_table())


#: Fence languages whose blocks hold shell command lines.
SHELL_FENCES = {"sh", "bash", "shell", "console"}


def _doc_commands():
    """``(where, argv)`` for every ``repro-eyeball`` line in the fenced
    shell blocks of README.md and docs/*.md: ``\\`` continuations
    joined, a ``$ `` prompt stripped, each line cut at ``#``, ``>`` and
    ``|``."""
    for doc in [README, *sorted((ROOT / "docs").glob("*.md"))]:
        fence, pending = None, ""
        for number, line in enumerate(doc.read_text().splitlines(), 1):
            if line.startswith("```"):
                fence = line[3:].strip() if fence is None else None
                continue
            if fence not in SHELL_FENCES:
                continue
            line = pending + line.strip()
            if line.endswith("\\"):
                pending = line[:-1]
                continue
            pending = ""
            if line.startswith("$ "):
                line = line[2:]
            words = shlex.split(re.split(r"[#>|]", line)[0])
            if words[:1] == ["repro-eyeball"]:
                yield f"{doc.name}:{number}", words[1:]


class TestDocCommands:
    """Every documented command line parses with the real parser, so a
    removed or misplaced flag in the docs fails the suite."""

    def test_every_documented_command_parses(self, capsys):
        commands = list(_doc_commands())
        assert len(commands) > 20, "the doc scan found no commands"
        broken = []
        for where, argv in commands:
            try:
                build_parser().parse_args(argv)
            except SystemExit as exc:
                if exc.code:
                    broken.append(f"{where}: repro-eyeball {' '.join(argv)}")
        capsys.readouterr()
        assert not broken, "unparseable doc commands:\n" + "\n".join(broken)


class TestCommands:
    def test_table1_prints_both_sources(self, capsys):
        status = main(["table1"])
        out = capsys.readouterr().out
        assert status == 0
        assert "measured" in out
        assert "paper" in out
        assert "shape checks:" in out

    def test_figure1_prints_pop_list(self, capsys):
        status = main(["--scale", "0.004", "figure1"])
        out = capsys.readouterr().out
        assert status == 0
        assert "Milan" in out
        assert "Figure 1" in out

    def test_section6_prints_case_study(self, capsys):
        status = main(["--scale", "0.004", "section6"])
        out = capsys.readouterr().out
        assert status == 0
        assert "RAI" in out
        assert "NaMEX" in out

    def test_figure2_small_reference(self, capsys):
        status = main(["--reference-ases", "10", "figure2"])
        out = capsys.readouterr().out
        assert status == 0
        assert "2(a)" in out

    def test_survey_prints_regions(self, capsys):
        status = main(["survey"])
        out = capsys.readouterr().out
        assert status == 0
        for region in ("NA", "EU", "AS"):
            assert region in out
        assert "most peering-active: EU" in out

    def test_strict_propagates_failures(self, capsys):
        # The small preset at the default seed misses one Table 1 level
        # check, so --strict must flip the exit code.
        relaxed = main(["table1"])
        strict = main(["--strict", "table1"])
        capsys.readouterr()
        assert relaxed == 0
        assert strict in (0, 1)  # seed-dependent, but never crashes
