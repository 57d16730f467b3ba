"""Docs stay true: link integrity, CLI reference vs argparse, and the
index modules' structured docstrings.

PR 2 grew the CLI faster than the prose (multi-experiment sweeps,
engine flags); these tests make that drift impossible to reintroduce:
the complete flag set of every subcommand is audited against
``docs/cli.md`` and against the rendered ``--help`` text, and every
relative link in the documentation must resolve.
"""

import argparse
import importlib
import re
from pathlib import Path

import pytest

from repro.cli.main import build_parser
from repro.core.experiments import EXPERIMENTS

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
TABLE_FLAG = re.compile(r"^\|\s*`(--[a-z-]+)")


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    # choices maps every alias; here each name maps to a distinct parser.
    return dict(action.choices)


def _flags(sub: argparse.ArgumentParser) -> set[str]:
    out = set()
    for action in sub._actions:
        for option in action.option_strings:
            if option.startswith("--") and option != "--help":
                out.add(option)
    return out


def _cli_md_sections() -> dict[str, str]:
    text = (REPO / "docs" / "cli.md").read_text(encoding="utf-8")
    sections: dict[str, str] = {}
    current = None
    for line in text.splitlines():
        heading = re.match(r"^## `repro (\w+)`", line)
        if heading:
            current = heading.group(1)
            sections[current] = ""
        elif line.startswith("## "):
            current = None
        elif current is not None:
            sections[current] += line + "\n"
    return sections


class TestDocLinks:
    @pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
    def test_relative_links_resolve(self, doc):
        broken = []
        for target in LINK.findall(doc.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            path = (doc.parent / target.split("#", 1)[0]).resolve()
            if not path.exists():
                broken.append(target)
        assert not broken, f"{doc.name}: broken links {broken}"

    def test_readme_links_to_the_docs_site(self):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        assert "docs/architecture.md" in text
        assert "docs/cli.md" in text


class TestCliReference:
    """docs/cli.md documents exactly the flags argparse defines."""

    def test_every_subcommand_has_a_section(self):
        sections = _cli_md_sections()
        missing = set(_subcommands()) - set(sections)
        assert not missing, f"docs/cli.md lacks sections for {sorted(missing)}"

    @pytest.mark.parametrize("name", sorted(_subcommands()))
    def test_every_flag_is_documented(self, name):
        section = _cli_md_sections()[name]
        undocumented = {
            flag for flag in _flags(_subcommands()[name]) if flag not in section
        }
        assert not undocumented, (
            f"docs/cli.md section for 'repro {name}' does not mention "
            f"{sorted(undocumented)}"
        )

    @pytest.mark.parametrize("name", sorted(_subcommands()))
    def test_no_stale_flags_in_tables(self, name):
        """Every flag row of a command's table must exist in argparse."""
        real = _flags(_subcommands()[name])
        stale = []
        for line in _cli_md_sections()[name].splitlines():
            match = TABLE_FLAG.match(line.strip())
            if match and match.group(1) not in real:
                stale.append(match.group(1))
        assert not stale, (
            f"docs/cli.md documents nonexistent 'repro {name}' flags {stale}"
        )

    @pytest.mark.parametrize("name", sorted(_subcommands()))
    def test_documented_flags_appear_in_help_output(self, name):
        """The docs, the --help text, and the parser agree."""
        help_text = _subcommands()[name].format_help()
        for line in _cli_md_sections()[name].splitlines():
            match = TABLE_FLAG.match(line.strip())
            if match:
                assert match.group(1) in help_text

    @pytest.mark.parametrize("name", ["sweep", "launch"])
    def test_experiment_rows_list_exactly_the_experiment_table(self, name):
        """The `experiment` positional's row names every ``EXPERIMENTS``
        entry, in table order, and nothing else; ``--only``'s row names
        every axis key."""
        section = _cli_md_sections()[name]
        row = next(
            line for line in section.splitlines()
            if line.startswith("| `experiment`")
        )
        choices = row.split("|")[3]
        assert re.findall(r"`(\w+)`", choices)[: len(EXPERIMENTS)] == list(EXPERIMENTS)
        positional = next(
            a for a in _subcommands()[name]._actions if a.dest == "experiment"
        )
        assert list(positional.choices) == list(EXPERIMENTS)
        if name == "sweep":
            only = next(
                line for line in section.splitlines() if line.startswith("| `--only")
            )
            listed = re.search(r"axis name \(([^)]*)\)", only).group(1)
            assert re.findall(r"`(\w+)`", listed) == [
                e.axis_key for e in EXPERIMENTS.values()
            ]

    def test_exit_codes_and_env_vars_documented(self):
        text = (REPO / "docs" / "cli.md").read_text(encoding="utf-8")
        assert "## Exit codes" in text
        for var in ("REPRO_JOBS", "REPRO_SHARED_MEM", "REPRO_BATCH_QUERIES",
                    "REPRO_SCALE"):
            assert var in text, f"env var {var} undocumented"


class TestHelpTextDrift:
    """The PR 2 drift, pinned: help strings match current behavior."""

    def test_sweep_accepts_multiple_experiments(self):
        subs = _subcommands()
        experiment = next(
            a for a in subs["sweep"]._actions if a.dest == "experiment"
        )
        assert experiment.nargs == "+"
        assert "sweep(s)" in experiment.help

    def test_query_option_help_mentions_filtering(self):
        subs = _subcommands()
        option = next(
            a for a in subs["query"]._actions if "--option" in a.option_strings
        )
        assert "that accepts it" in option.help

    def test_sweep_json_help_mentions_the_manifest(self):
        subs = _subcommands()
        json_flag = next(
            a for a in subs["sweep"]._actions if "--json" in a.option_strings
        )
        assert "manifest" in json_flag.help

    def test_report_help_covers_merge_output(self):
        parser = build_parser()
        action = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        help_of = {
            choice.dest: choice.help for choice in action._choices_actions
        }
        assert "merge" in help_of["report"]


INDEX_MODULES = (
    "cni",
    "ctindex",
    "gcode",
    "ggsx",
    "gindex",
    "grapes",
    "naive",
    "pathtrie",
    "treedelta",
)


class TestIndexDocstrings:
    @pytest.mark.parametrize("name", INDEX_MODULES)
    def test_structured_provenance_block(self, name):
        module = importlib.import_module(f"repro.indexes.{name}")
        doc = module.__doc__ or ""
        for required in ("Reproduces:", "Feature class:", "Known deviations:"):
            assert required in doc, (
                f"repro.indexes.{name} docstring lacks a {required!r} line"
            )
