"""The README's shell commands and example config work with the current CLI."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from ltrlab import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
SUBCOMMANDS = {"world", "distill", "train", "eval", "significance", "ablate", "bench"}


def readme_commands() -> list[list[str]]:
    """The arguments of every `ltrlab ...` line in the README's bash blocks,
    with backslash-continued lines joined."""
    text = "".join(re.findall(r"```bash\n(.*?)```", README, re.S)).replace("\\\n", " ")
    lines = [line for line in text.splitlines() if line.startswith("ltrlab ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


COMMANDS = readme_commands()


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == SUBCOMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_readme_command_parses(argv):
    cli.build_parser().parse_args(argv)


def test_readme_example_config_loads(tmp_path):
    example = re.search(r"cat > config\.json <<'EOF'\n(.*?\n)EOF\n", README, re.S)
    path = tmp_path / "config.json"
    path.write_text(example.group(1), encoding="utf-8")
    cfg = cli.load_experiment_config(str(path), argparse.Namespace())
    assert cfg.world.docs_per_query == 60
