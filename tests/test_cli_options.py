"""Each CLI subcommand accepts exactly the options it reads, plus --out and
--format; any other option is a usage error (exit 2, nothing on stdout).

Runs `cli.main` in-process with `SystemExit` caught."""

import contextlib
import io
import json
import random
import re

import pytest

from triholo import cli, fixtures, opalgebra
from triholo import io as tio
from triholo.lattice import Window

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


@pytest.mark.parametrize("argv, flag, value", [
    (["taylor", "--order", "1_0", "--window", "0", "3"], "--order", "1_0"),
    (["taylor", "--order", "\u0662"], "--order", "\u0662"),
    (["taylor", "--order", "+2"], "--order", "+2"),
    (["taylor", "--order", "2.0"], "--order", "2.0"),
    (["taylor", "--seed", " 3"], "--seed", " 3"),
    (["green", "--window", "\u0661", "3"], "--window", "\u0661"),
    (["green", "--window", "0", "5", "0", "5_0"], "--window", "5_0"),
    (["cauchy", "--seed", "1_2"], "--seed", "1_2"),
    (["maxprinciple", "--mesh", "m.tri", "--seed", "x"], "--seed", "x"),
    (["qcd-identity", "--window", "-2", "+2"], "--window", "+2"),
])
def test_integer_options_take_ascii_digits_only(argv, flag, value):
    rc, out, err = run(argv)
    assert rc == 2 and out == ""
    assert f"argument {flag}: invalid int value: {value!r}" in err


@pytest.mark.parametrize("argv", [
    ["green", "--window", "-16", "10", "-16", "10"],
    ["cauchy", "--seed", "-5", "--window", "-6", "6"],
    ["taylor", "--order", "02", "--seed", "-5", "--window", "-8", "4"],
])
def test_integer_options_keep_negative_and_plain_values(argv):
    rc, out, err = run(argv)
    assert rc == 0 and err == "" and json.loads(out)["ok"]


def test_key_error_inside_a_command_propagates(monkeypatch):
    # a KeyError is a bug in the program, not a domain error: no JSON body
    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "cmd_green", broken)
    with pytest.raises(KeyError, match="internal"):
        cli.main(["green"])


def test_parser_keeps_no_state_between_calls(monkeypatch, tmp_path):
    """`main` builds its parser once per process.  Good calls of every
    subcommand, usage errors, --help at three terminal widths and domain
    errors, interleaved, give the rc, stdout and stderr a fresh
    `build_parser()` tree gives, and leave the --window defaults as they
    were."""
    octa = tmp_path / "octa.tri"
    octa.write_text(tio.write_mesh(fixtures.octahedron()), encoding="utf-8")
    hex3 = tmp_path / "hex3.tri"
    hex3.write_text(tio.write_mesh(fixtures.hex_patch(3).surface), encoding="utf-8")
    cycle = tmp_path / "c6.cplx"
    cycle.write_text("".join(f"s {i} {(i + 1) % 6}\n" for i in range(6)), encoding="utf-8")
    lop = opalgebra.random_factorizable(random.Random(3), "black")
    op = tmp_path / "l.op"
    op.write_text("".join(
        f"op {a[0]} {a[1]}\n" + "".join(f"c {x} {y} {getattr(lop, k)((x, y))}\n"
                                        for x, y in Window(0, 5, 0, 5).points())
        for k, a in opalgebra.SCHRODINGER_SHIFTS.items()), encoding="utf-8")
    bad = tmp_path / "bad.conn"
    bad.write_text("b 99 0 2\n", encoding="utf-8")
    calls = [
        (["mesh-check", "--mesh", str(octa)], None),
        (["green", "--window", "3"], None),
        (["holonomy", "--mesh", str(octa)], None),
        (["taylor", "--help"], "60"),
        (["covariants", "--mesh", str(octa)], None),
        (["mesh-check", "--mesh", str(tmp_path / "does-not-exist.tri")], None),
        (["maxprinciple", "--mesh", str(hex3), "--seed", "4"], None),
        (["qcd-identity", "--mode", "float", "--c", "1.0"], None),
        (["taylor", "--order", "1", "--window", "-3", "3"], None),
        (["covariants", "--mesh", str(octa), "--seed", "1"], None),
        (["cauchy", "--seed", "2", "--window", "-4", "4"], None),
        (["taylor", "--help"], "120"),
        (["green", "--window", "-2", "3"], None),
        (["green"], None),
        (["holonomy", "--mesh", str(octa), "--conn", str(bad)], None),
        (["factorize", "--op", str(op), "--window", "0", "5"], None),
        (["--help"], "90"),
        (["qcd-identity", "--window", "-2", "2"], None),
        (["qcd-identity", "--window", "-2", "2", "--q", "1/0"], None),
        (["ksimplicial", "--complex", str(cycle)], None),
        (["green", "--window", "-2", "3"], None),
    ]
    assert {argv[0] for argv, _ in calls} >= set(cli.COMMANDS)

    def run_all():
        got = []
        for argv, columns in calls:
            with monkeypatch.context() as m:
                if columns is not None:
                    m.setenv("COLUMNS", columns)
                got.append(run(argv))
        return got

    windows = {name: list(w) for name, (_, _, w) in cli.COMMANDS.items() if w}
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        fresh = run_all()
    assert [rc for rc, _, _ in fresh] == [0, 2, 0, 0, 0, 1, 0, 2, 0, 2,
                                          0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0]
    assert fresh[3][1] != fresh[11][1]      # help wraps to the width at print
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    assert run_all() == fresh
    assert run_all() == fresh
    assert len(built) == 1
    cli._parser.cache_clear()
    assert {name: w for name, (_, _, w) in cli.COMMANDS.items() if w} == windows
