"""Golden tests for the ``cfdlang-flow`` command line.

Two records pin the CLI's observable surface so that refactors of
``repro.flow.cli`` keep it unchanged:

* the flag inventory: for every parser, each flag's option strings,
  dest, default, choices, required, nargs, type and action (help text
  is free to change);
* the masked stdout and exit code of a fixed sequence of in-process
  commands.  Masking removes what varies between runs and hosts:
  decimals (timings, percentages), throughput figures, byte counts of
  pickled cache entries, temporary paths and table padding.

Regenerate the record after an intended change with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import re
import sys
import tempfile

import pytest

from repro.flow import cli

GOLDEN = pathlib.Path(__file__).with_name("data") / "cli_golden.json"

#: run in this order: the last four share one cache directory
COMMANDS = [
    ["--list-stages"],
    ["--list-boards"],
    ["--list-backends"],
    ["--app", "helmholtz", "-n", "6", "-o", "{tmp}/run", "--trace",
     "--simulate"],
    ["--app", "helmholtz", "-n", "6", "--stop-after", "schedule"],
    ["--app", "helmholtz", "-n", "6", "-o", "{tmp}/sweep",
     "--sweep", "1x1,2x2", "--executor", "serial"],
    ["--app", "helmholtz", "-n", "6", "-o", "{tmp}/exec",
     "--exec-backend", "numpy", "--functional-ne", "4"],
    ["--app", "helmholtz", "-n", "6", "-o", "{tmp}/hbm",
     "--board", "u280", "--memory-model", "hbm", "--simulate"],
    ["program", "--suite", "smoother", "-n", "6", "--exec-backend", "numpy",
     "--functional-ne", "4", "--trace"],
    ["program", "--suite", "fem-cfd", "-n", "6", "--fuse"],
    ["solve", "-n", "6", "--steps", "2", "--ne", "4", "--trace",
     "--expect-front-end-cached"],
    ["--app", "helmholtz", "-n", "6", "-o", "{tmp}/cold",
     "--cache-dir", "{tmp}/cache"],
    ["--app", "helmholtz", "-n", "6", "-o", "{tmp}/warm",
     "--cache-dir", "{tmp}/cache", "--expect-front-end-cached"],
    ["cache", "stats", "--cache-dir", "{tmp}/cache"],
    ["cache", "verify", "--cache-dir", "{tmp}/cache"],
]


def _parsers():
    yield "main", cli.build_parser()
    yield "cache", cli.build_cache_parser()
    yield "worker", cli.build_worker_parser()
    yield "broker", cli.build_broker_parser()
    yield "program", cli.build_program_parser()
    yield "solve", cli.build_solve_parser()
    for verb in ("submit", "status", "fetch", "cancel"):
        yield verb, cli.build_service_parser(verb)


def _flags(parser: argparse.ArgumentParser) -> dict:
    """Flag records keyed by option strings (positionals by dest): the
    order flags are declared in changes only the help text."""
    flags = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        record = {
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "default": action.default,
            "choices": (
                None if action.choices is None else sorted(action.choices)
            ),
            "required": action.required,
            "nargs": action.nargs,
            "type": getattr(action.type, "__name__", action.type),
            "action": type(action).__name__,
        }
        if isinstance(action, argparse._SubParsersAction):
            record["subparsers"] = {
                name: _flags(sub) for name, sub in action.choices.items()
            }
        flags[", ".join(action.option_strings) or action.dest] = record
    return flags


def flag_inventory() -> dict:
    return {name: _flags(parser) for name, parser in _parsers()}


def _cnative_available() -> bool:
    from repro.exec import get_backend

    return get_backend("cnative").available()


def mask(text: str, tmp: str) -> list:
    text = text.replace(tmp, "<tmp>")
    if not _cnative_available():
        # the record was taken on a host with a C compiler
        text = re.sub(r"^(cnative \| )no \(.*?\)(?= \|)", r"\1yes", text,
                      flags=re.M)
    text = re.sub(r"[\d,]+ (elements|element-steps)/sec", r"<n> \1/sec",
                  text)
    text = re.sub(r"\d+ bytes|bytes: +\d+", "<bytes>", text)
    text = re.sub(r"\d+\.\d+", "<d>", text)
    lines = []
    for line in text.splitlines():
        line = re.sub(r"-{2,}", "--", line)
        lines.append(re.sub(r" {2,}", " ", line).rstrip())
    return lines


def transcript() -> list:
    records = []
    with tempfile.TemporaryDirectory(prefix="cli-golden-") as tmp:
        for template in COMMANDS:
            argv = [a.replace("{tmp}", tmp) for a in template]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
            records.append({
                "argv": template, "rc": rc,
                "stdout": mask(out.getvalue(), tmp),
            })
    return records


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def recorded():
    return transcript()


def test_flag_inventory(golden):
    # through JSON so tuples and lists compare alike
    assert json.loads(json.dumps(flag_inventory())) == golden["flags"]


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=[" ".join(c).replace("{tmp}/", "")
                              for c in COMMANDS])
def test_golden_output(golden, recorded, index):
    want = golden["commands"][index]
    got = recorded[index]
    assert got["argv"] == want["argv"]
    assert (got["rc"], got["stdout"]) == (want["rc"], want["stdout"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {"flags": flag_inventory(), "commands": transcript()}, indent=1
    ) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
