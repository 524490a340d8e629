"""Every command line of the report battery prints its recorded exit code and stdout."""

import difflib
from pathlib import Path

from uncloneq import cli

import report_battery


def test_reports_match_the_record():
    want = report_battery.RECORD.read_text()
    got = report_battery.render()
    diff = "".join(
        difflib.unified_diff(want.splitlines(True), got.splitlines(True), "recorded", "now", n=1)
    )
    assert got == want, (
        "reports moved; if on purpose, re-record with "
        "PYTHONPATH=src python tests/report_battery.py\n" + diff[:6000]
    )


def test_battery_covers_every_name():
    # every subcommand, channel and attack name, and README's count of the battery
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"full stdout of {len(report_battery.ARGV)} command lines" in " ".join(readme.split())
    words = {word for argv in report_battery.ARGV for word in argv}
    assert set(cli._SUBCOMMANDS) | set(cli._CHANNELS) | set(cli._MEG_ATTACKS) <= words
