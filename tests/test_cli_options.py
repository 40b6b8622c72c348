"""Each CLI subcommand accepts exactly the options it reads, plus --out and
--format; any other option is a usage error (exit 2, nothing on stdout).

Runs `cli.main` in-process with `SystemExit` caught."""

import contextlib
import io
import re

import pytest

from triholo import cli

# The contract, written out independently of `cli.COMMANDS`.
EXPECTED = {
    "mesh-check": {"mesh"},
    "holonomy": {"mesh", "conn"},
    "covariants": {"mesh", "conn"},
    "maxprinciple": {"mesh", "domain", "psi", "seed"},
    "taylor": {"order", "seed", "window"},
    "cauchy": {"domain", "seed", "window"},
    "green": {"window"},
    "factorize": {"op", "mode", "tol", "window"},
    "qcd-identity": {"c", "d", "q", "s", "l", "mode", "tol", "window"},
    "ksimplicial": {"complex"},
}
EMIT = {"out", "format"}

# Required options, so that parsing gets as far as the unread one.  No file
# is opened: argparse rejects the argv first.
REQUIRED = {"mesh-check": ["--mesh", "m.tri"], "holonomy": ["--mesh", "m.tri"],
            "covariants": ["--mesh", "m.tri"], "maxprinciple": ["--mesh", "m.tri"],
            "factorize": ["--op", "x.op"], "ksimplicial": ["--complex", "x.cplx"]}
VALUES = {"seed": "1", "mode": "rational", "tol": "0.5"}

REMOVED = [(cmd, opt) for cmd in EXPECTED for opt in VALUES if opt not in EXPECTED[cmd]]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def listed(cmd):
    """The options `<cmd> --help` names, --help itself left out."""
    rc, out, err = run([cmd, "--help"])
    assert rc == 0 and err == ""
    return set(re.findall(r"--([a-z]+)", out)) - {"help"}


def test_option_slot_counts():
    assert len(REMOVED) == 23
    assert sum(len(listed(cmd)) for cmd in EXPECTED) == 49


@pytest.mark.parametrize("cmd, opt", REMOVED, ids=[f"{c}--{o}" for c, o in REMOVED])
def test_unread_option_is_usage_error(cmd, opt):
    rc, out, err = run([cmd, *REQUIRED.get(cmd, []), f"--{opt}", VALUES[opt]])
    assert rc == 2 and out == ""
    assert f"unrecognized arguments: --{opt} {VALUES[opt]}" in err


@pytest.mark.parametrize("cmd", sorted(EXPECTED))
def test_help_lists_exactly_the_table_options(cmd):
    assert listed(cmd) == EXPECTED[cmd] | EMIT
    fn, options, window = cli.COMMANDS[cmd]
    assert set(options) | ({"window"} if window else set()) == EXPECTED[cmd]
    assert fn.__name__ == "cmd_" + cmd.replace("-", "_")


def test_top_level_help_lists_every_subcommand():
    rc, out, _ = run(["--help"])
    assert rc == 0
    assert all(cmd in out for cmd in EXPECTED)
    assert list(cli.COMMANDS) == list(EXPECTED)


@pytest.mark.parametrize("extra", [["--mode", "float"], ["--tol", "1e-9"]])
def test_factorize_float_mode_and_tol_go_together(extra):
    argv = ["factorize", "--op", "x.op", *extra]
    rc, out, err = run(argv)
    assert rc == 2 and out == ""
    assert "--tol" in err


def test_key_error_inside_a_command_propagates(monkeypatch):
    # a KeyError is a bug in the program, not a domain error: no JSON body
    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "cmd_green", broken)
    with pytest.raises(KeyError, match="internal"):
        cli.main(["green"])
