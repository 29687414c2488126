"""The per-command CLI parsers: each command accepts exactly the flags
its handler reads, and every other flag is a usage error."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from repro.__main__ import POLICY_FLAGS, build_parser, main
from repro.harness import parallel

P = set(POLICY_FLAGS)

#: Each command's option strings, besides -h/--help and --stats-dump.
EXPECTED_FLAGS = {
    "figure1": {"--scale", "--apps"} | P,
    "figure2": {"--scale", "--apps"} | P,
    "figure6": {"--scale"},
    "table1": set(),
    "table2": set(),
    "table3": set(),
    "figure8": {"--scale", "--apps", "--set"} | P,
    "figure9": {"--scale", "--set"} | P,
    "figure10": {"--scale", "--set"} | P,
    "figure11": {"--scale", "--apps", "--set"} | P,
    "figure12": {"--scale", "--apps", "--set"} | P,
    "area": set(),
    "survey": set(),
    "compare-techniques": {"--scale", "--apps", "--set"} | P,
    "all": {"--scale", "--apps"} | P,
    "list": set(),
    "config-check": set(),
    "run": {"--scale", "--config", "--set", "--trace", "--pipeline-trace", "--json"},
    "sweep": {"--values", "--apps", "--scale", "--set"} | P,
    "lint": {"--apps", "--scale", "--strict", "--format", "--melded"},
    "soundness": {"--apps", "--scale"},
    "meld-verify": {"--apps", "--scale", "--workdir"},
    "bench": {"--apps", "--scale", "--set", "--repeats", "--out", "--baseline",
              "--tolerance", "--max-retries"},
    "chaos": {"--apps", "--scale", "--seed", "--jobs", "--workdir"},
    "fuzz": {"--seed", "--budget", "--corpus", "--no-save", "--workdir"},
    "serve": {"--host", "--port", "--port-file", "--queue-limit"} | P,
    "loadtest": {"--url", "--duration", "--concurrency", "--apps", "--configs", "--report",
                 "--check", "--min-rps", "--scale", "--queue-limit", "--workdir"} | P,
}

#: Each command's positionals (``apps_arg`` is the optional [APPS]).
EXPECTED_POSITIONALS = {
    "run": ["workload"],
    "sweep": ["field"],
    **{name: ["apps_arg"] for name in
       ("lint", "soundness", "meld-verify", "bench", "chaos", "loadtest")},
}


def subparsers():
    (action,) = (a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestFlagSets:
    def test_every_command_is_pinned(self):
        assert set(subparsers()) == set(EXPECTED_FLAGS)

    @pytest.mark.parametrize("name", sorted(EXPECTED_FLAGS))
    def test_options_match_the_table(self, name):
        sub = subparsers()[name]
        options = {s for a in sub._actions for s in a.option_strings}
        assert options == EXPECTED_FLAGS[name] | {"-h", "--help", "--stats-dump"}
        positionals = [a.dest for a in sub._actions if not a.option_strings]
        assert positionals == EXPECTED_POSITIONALS.get(name, [])

    @pytest.mark.parametrize("name", ["chaos", "loadtest", "meld-verify"])
    def test_fast_commands_default_to_tiny(self, name):
        assert subparsers()[name].get_default("scale") == "tiny"

    def test_other_commands_default_to_small(self):
        small = {name for name, sub in subparsers().items()
                 if sub.get_default("scale") == "small"}
        with_scale = {name for name, flags in EXPECTED_FLAGS.items() if "--scale" in flags}
        assert small == with_scale - {"chaos", "loadtest", "meld-verify"}


@pytest.mark.parametrize("argv", [
    ["lint", "--scale", "tiny", "--set", "gpu.l1_lines=4"],
    ["lint", "--jobs", "8"],
    ["run", "MM", "--scale", "tiny", "--apps", "LIB"],
    ["run", "MM", "--no-cache"],
    ["table1", "--jobs", "2"],
    ["figure6", "--apps", "MM"],
    ["figure9", "--apps", "MM"],
    ["list", "--scale", "tiny"],
    ["config-check", "--seed", "3"],
    ["all", "--set", "gpu.l1_lines=512"],
    ["sweep", "gpu.l1_lines", "--values", "64,512", "--apps", "MM,LIB"],
    ["fuzz", "--budget", "9", "--port", "1"],
    ["--scale", "tiny", "figure8"],
])
def test_rejects_a_flag_it_does_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_sweep_names_the_one_app_rule(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "gpu.l1_lines", "--values", "64,512", "--apps", "MM,LIB"])
    assert "sweep takes one app" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["table1"], ["table2"], ["table3"], ["area"], ["survey"], ["figure6", "--scale", "tiny"],
])
def test_drivers_without_policy_never_sweep(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("reached the sweep layer")

    monkeypatch.setattr(parallel, "run_specs", refuse)
    assert main(argv) == 0
    assert f"[{argv[0]} regenerated in" in capsys.readouterr().out


CI_WORKFLOW = Path(__file__).resolve().parents[2] / ".github" / "workflows" / "ci.yml"


def ci_repro_commands(text):
    """Every ``python -m repro ...`` step in a workflow, with folded
    ``run: >`` blocks joined into one line."""
    folded = re.compile(r"^( *)(?:- )?run: >\n((?:\1 +\S.*(?:\n|$))+)", re.M)
    inline = re.compile(r"^ *(?:- )?run: (?!>)(.+)$", re.M)
    runs = [" ".join(body.split()) for _, body in folded.findall(text)]
    runs += inline.findall(text)
    return [run for run in runs if run.startswith("python -m repro ")]


def test_ci_repro_commands_parse():
    commands = ci_repro_commands(CI_WORKFLOW.read_text())
    parser = build_parser()
    names = set()
    for command in commands:
        args = parser.parse_args(shlex.split(command)[3:])
        names.add(args.command)
    assert {"lint", "soundness", "config-check", "bench", "chaos", "meld-verify",
            "fuzz", "loadtest"} <= names
