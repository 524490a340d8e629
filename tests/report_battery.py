"""A battery of command lines whose reports are checked in, byte for byte.

``ARGV`` lists command lines of ``uncloneq``: each subcommand's defaults,
README's command lines, every seesaw channel and meg attack on bb84, Haar,
random-rank and three-message schemes, three conjecture-scan shapes and the
refused command lines of ``test_cli.py``, at several seeds.
``report_battery.txt`` holds, for each, its exit code and its full
stdout; ``test_report_battery.py`` runs every command line in process and
compares.  A change that moves reports on purpose re-records the file with

    PYTHONPATH=src python tests/report_battery.py

and its diff shows which rows moved.  In the file, each entry is a
``$ uncloneq ...`` line, an ``exit N`` line and one line per stdout line:
``|`` before a line that ends in CRLF (the CSV report), ``:`` before one
that ends in LF (the JSON report), ``!`` before a last line with no line
end.  A refusal's stdout is empty, and its stderr wording is not recorded.
"""

from __future__ import annotations

import contextlib
import io
import shlex
import sys
from pathlib import Path

from uncloneq.cli import main

RECORD = Path(__file__).with_name("report_battery.txt")

_SEEDS = ("1", "2", "3")
_RANDOM_RANKS = '{"type": "haar", "M": 2, "d": 3, "tdist": [[[1, 2], 0.5], [[2, 1], 0.5]]}'
# bb84, Haar, random-rank and three-message schemes; the Breidbart basis is a qubit basis
_SCHEMES = ("bb84:1", "uniform_haar:2,2", _RANDOM_RANKS, "uniform_haar:3,1", "haar:2-1-1")
_QUBIT = ("bb84:1", "uniform_haar:2,1")
# meg's game needs a key-independent average ciphertext, so uniform ranks (haar:3-1 exits 2)
_UNIFORM = ("bb84:1", "uniform_haar:2,2", "uniform_haar:3,1")


def _seeded(*argv: str) -> list[list[str]]:
    return [[*argv, "--seed", seed] for seed in _SEEDS]


ARGV: list[list[str]] = [
    # defaults, and the unseeded subcommands in both formats
    ["o2h"],
    ["o2h", "--json"],
    ["selftest"],
    *_seeded("lemma1"),
    *_seeded("theorem2", "--trials", "2000"),
    ["theorem2", "--seed", "1"],
    *_seeded("erlang", "--trials", "20000"),
    ["erlang", "--seed", "1"],
    *_seeded("seesaw"),
    *_seeded("meg"),
    ["meg", "--seed", "1", "--json"],
    *_seeded("conjecture-scan"),
    # README's command lines
    ["lemma1", "--seed", "1"],
    ["theorem2", "--seed", "2", "--cases", "4x4;16x16", "--trials", "20000"],
    ["erlang", "--seed", "3", "--ns", "2,4,64,1024", "--trials", "100000"],
    ["seesaw", "--seed", "4", "--scheme", "bb84:1", "--channel", "cloner", "--trials", "4"],
    ["meg", "--seed", "5", "--scheme", "uniform_haar:2,2", "--attack", "cloner", "--trials", "50"],
    ["conjecture-scan", "--seed", "6", "--M", "2", "--d", "4", "--trials", "3"],
    # every seesaw channel and meg attack on each kind of scheme
    *[
        argv
        for scheme in _SCHEMES
        for channel in ("cloner", "measure_share")
        for argv in _seeded("seesaw", "--scheme", scheme, "--channel", channel, "--trials", "4")
    ],
    *[
        argv
        for scheme in _QUBIT
        for argv in _seeded(
            "seesaw", "--scheme", scheme, "--channel", "measure_share:breidbart", "--trials", "4"
        )
    ],
    # test_cli.py's golden seesaw shapes, and runs of many keys in one or more chunks
    ["seesaw", "--scheme", "uniform_haar:2,3", "--channel", "measure_share", "--trials", "60",
     "--seed", "3"],
    ["seesaw", "--scheme", "bb84:2", "--channel", "cloner", "--trials", "4", "--seed", "7"],
    ["conjecture-scan", "--M", "2", "--d", "8", "--trials", "6", "--seed", "11"],
    ["conjecture-scan", "--M", "3", "--d", "6", "--trials", "3", "--seed", "40"],
    ["seesaw", "--scheme", "bb84:1", "--channel", "cloner", "--trials", "300", "--seed", "1"],
    ["seesaw", "--scheme", "uniform_haar:3,2", "--channel", "measure_share", "--trials", "80",
     "--seed", "1"],
    ["seesaw", "--scheme", "uniform_haar:3,2", "--channel", "cloner", "--trials", "3",
     "--restarts", "3", "--seed", "1"],
    *[
        argv
        for scheme in _UNIFORM
        for attack in ("cloner", "measure_share")
        for argv in _seeded("meg", "--scheme", scheme, "--attack", attack, "--trials", "4")
    ],
    *_seeded("lemma1", "--scheme", "uniform_haar:2,4", "--trials", "4"),
    *_seeded("lemma1", "--scheme", _RANDOM_RANKS, "--trials", "4"),
    # both scan shapes
    *_seeded("conjecture-scan", "--M", "2", "--d", "8", "--trials", "3"),
    *_seeded("conjecture-scan", "--M", "3", "--d", "6", "--trials", "3"),
    # a four-message scan whose two splits share one chunk
    *_seeded("conjecture-scan", "--M", "4", "--d", "6", "--trials", "2"),
    # command lines test_cli.py refuses: usage errors, out-of-range input and oversize runs
    ["erlang"],
    ["no-such-command"],
    ["lemma1", "--seed", "1", "--scheme", "rot13:1"],
    ["seesaw", "--seed", "1", "--alpha", "2"],
    ["o2h", "--seed", "3"],
    ["erlang", "--seed", "1", "--rate", "nan"],
    ["erlang", "--seed", "-1"],
    ["theorem2", "--cases", "4x4", "--trials", "1", "--seed", "1"],
    ["erlang", "--ns", "2,4", "--trials", "1", "--seed", "1"],
    ["seesaw", "--trials", "1", "--seed", "1"],
    ["conjecture-scan", "--trials", "1", "--seed", "1"],
    *[
        [*argv, "--seed", "1"]
        for argv in (
            ["lemma1", "--scheme", "bb84:0"],
            ["seesaw", "--scheme", "haar:0-2"],
            ["theorem2", "--cases", "1x0"],
            ["meg", "--scheme", "uniform_haar:3,1", "--attack", "cloner"],
            ["lemma1", "--m0", "5"],
            ["lemma1", "--m0", "-1"],
            ["lemma1", "--scheme", "uniform_haar:1,2"],
            ["theorem2", "--cases", "0x4"],
            ["conjecture-scan", "--M", "0"],
            ["conjecture-scan", "--M", "5", "--d", "2"],
            ["theorem2", "--cases", "4x4x4"],
            ["erlang", "--ns", ","],
            ["lemma1", "--scheme", '{"type":"haar"}'],
            ["lemma1", "--scheme", '{"type":"haar","M":2,"d":2,"tdist":5}'],
            ["lemma1", "--scheme", '{"type":"bb84","n":null}'],
            ["lemma1", "--scheme", '{"type":"haar","M":2,"d":2,"tdist":[[[1,1.5],1.0]]}'],
            ["lemma1", "--scheme", '{"type":"haar","M":2,"d":3,"tdist":[[[true,2],1.0]]}'],
            ["seesaw", "--scheme", '{"type":"haar","M":2,"d":3,"tdist":[[[1,2],0.5],[[2,1],NaN]]}',
             "--trials", "2"],
            ["lemma1", "--trials", "0"],
            ["lemma1", "--trials", "-5"],
            ["meg", "--trials", "0"],
            ["conjecture-scan", "--trials", "0"],
            ["seesaw", "--scheme", "uniform_haar:3,2", "--channel", "measure_share:breidbart"],
            ["seesaw", "--channel", "bogus"],
            ["meg", "--attack", "bogus"],
            ["theorem2", "--cases", "2x3"],
            ["lemma1", "--scheme", '{"type":"bb84","n":1.9}'],
            ["lemma1", "--scheme", '{"type":"bb84","n":true}'],
            ["lemma1", "--scheme", '{"type":"bb84","n":"2"}'],
            ["lemma1", "--scheme", '{"type":"uniform_haar","M":2.5,"L":1}'],
            ["lemma1", "--scheme", '{"type":"haar","M":2,"d":3.9,"tdist":[[[1,2],1.0]]}'],
            ["erlang", "--ns", "4,0"],
            ["erlang", "--ns", "2.5"],
            ["lemma1", "--alpha", "2"],
            ["lemma1", "--alpha", "nan"],
            ["seesaw", "--restarts", "0"],
            ["conjecture-scan", "--restarts", "-3"],
            ["seesaw", "--scheme", "uniform_haar:10,1", "--channel", "measure_share",
             "--restarts", "-42", "--trials", "2"],
            ["conjecture-scan", "--M", "15", "--d", "19", "--restarts", "-193", "--trials", "2"],
            ["lemma1", "--scheme", "uniform_haar:2,1", "--m0", "5"],
            ["theorem2", "--cases", "4x4;2x5000"],
            ["erlang", "--ns", "2,16777217"],
            ["meg", "--scheme", "uniform_haar:2,129", "--attack", "measure_share"],
            ["meg", "--scheme", "uniform_haar:2,300", "--attack", "cloner"],
            ["lemma1", "--scheme", "uniform_haar:2,5000", "--trials", "2"],
            ["lemma1", "--scheme", "uniform_haar:2,8", "--trials", "1000000"],
            ["seesaw", "--scheme", "uniform_haar:2,3", "--channel", "measure_share",
             "--trials", "1000000"],
            ["meg", "--scheme", "uniform_haar:2,5", "--trials", "1000000"],
            ["conjecture-scan", "--M", "2", "--d", "8", "--trials", "1000000"],
            ["conjecture-scan", "--M", "10", "--d", "200", "--trials", "2"],
            ["meg", "--scheme", "uniform_haar:4,2", "--trials", "100000"],
            ["conjecture-scan", "--M", "2", "--d", "256", "--trials", "2"],
            ["seesaw", "--scheme", "uniform_haar:2,129", "--channel", "measure_share",
             "--trials", "2"],
            ["conjecture-scan", "--M", "1000000", "--d", "1000000", "--trials", "2"],
            ["seesaw", "--restarts", "1000000"],
            ["conjecture-scan", "--restarts", "1000000"],
        )
    ],
    # an invariant failure exits 2
    ["meg", "--seed", "7", "--scheme", "haar:3-1", "--attack", "cloner", "--trials", "3"],
]


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process run; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def entry(argv: list[str], code: int, stdout: str) -> str:
    """One argv's entry of the record, as the module docstring lays it out."""
    lines = [f"$ uncloneq {shlex.join(argv)}", f"exit {code}"]
    *ended, last = stdout.split("\n")
    for line in ended:
        lines.append("| " + line[:-1] if line.endswith("\r") else ": " + line)
    if last:
        lines.append("! " + last)
    return "\n".join(lines) + "\n"


def render() -> str:
    """The record as the code prints it now."""
    return "\n".join(entry(argv, *run(argv)) for argv in ARGV)


if __name__ == "__main__":
    RECORD.write_text(render())
    print(f"recorded {len(ARGV)} command lines in {RECORD}", file=sys.stderr)
