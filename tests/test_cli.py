import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from uncloneq import attacks, cli, config, linalg, optimize, schemes
from uncloneq.cli import _build_parser, _merge_options, main
from uncloneq.schemes import QecmScheme

import report_battery


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestBasicRuns:
    def test_o2h_rows(self, capsys):
        code, out = run_cli(["o2h"], capsys)
        assert code == 0
        lines = out.strip().split("\r\n")
        assert lines[0] == "quantity,value,reference,tolerance,pass"
        assert lines[1].startswith("success,0.5625,")
        assert lines[2].startswith("extraction,0,")
        assert lines[3].startswith("rhs,4.5,4.5,0,true")

    def test_lemma1_bb84(self, capsys):
        code, out = run_cli(["lemma1", "--seed", "1"], capsys)
        assert code == 0
        assert "0.5625" in out

    @pytest.mark.parametrize(
        "args",
        [
            ["lemma1", "--seed", "1"],
            ["lemma1", "--scheme", "uniform_haar:2,4", "--trials", "2", "--seed", "1"],
        ],
    )
    def test_lemma1_computes_top_eigenvalue_means_once(self, args, capsys, monkeypatch):
        # m1 and the reported mu come from one pass over the run's keys
        calls = []
        means = schemes.top_eigenvalue_means

        def counted(e, keys):
            calls.append(len(keys))
            return means(e, keys)

        monkeypatch.setattr(attacks, "top_eigenvalue_means", counted)
        monkeypatch.setattr(schemes, "top_eigenvalue_means", counted)
        code, _ = run_cli(args, capsys)
        assert code == 0
        assert len(calls) == 1

    def test_theorem2_single_case(self, capsys):
        code, out = run_cli(
            ["theorem2", "--seed", "2", "--cases", "2x2", "--trials", "2000"], capsys
        )
        assert code == 0
        row = out.strip().split("\r\n")[1].split(",")
        assert row[0] == "2" and row[-1] == "true"
        assert abs(float(row[3]) - 0.75) < 0.02

    def test_erlang(self, capsys):
        code, out = run_cli(
            ["erlang", "--seed", "3", "--ns", "2,4", "--trials", "5000"], capsys
        )
        assert code == 0
        assert out.count("true") == 2

    @pytest.mark.parametrize(
        "args, references",
        [
            (
                ["theorem2", "--cases", "4x4;16x16;8x16;2x2", "--trials", "20"],
                ["0.0057125", "0.004284375", "0.00285625", "0"],
            ),
            (
                ["erlang", "--ns", "1,2,4,64,1024", "--trials", "20"],
                ["1", "0.02285", "0.02285", "0.004284375", "0.0004462890625"],
            ),
        ],
    )
    def test_reference_columns_keep_the_quoted_constant(self, args, references, capsys):
        # 0.0457 (and 0.02285 for theorem2) derived from ERLANG_MAX_CONSTANT
        main(args + ["--seed", "1"])
        lines = capsys.readouterr().out.strip().split("\r\n")
        col = lines[0].split(",").index("reference")
        assert [line.split(",")[col] for line in lines[1:]] == references

    def test_seesaw_warm_started(self, capsys):
        code, out = run_cli(
            ["seesaw", "--seed", "4", "--scheme", "bb84:1", "--trials", "4"], capsys
        )
        assert code == 0
        assert out.strip().split("\r\n")[1].split(",")[-1] == "true"

    def test_meg(self, capsys):
        code, out = run_cli(
            ["meg", "--seed", "5", "--scheme", "uniform_haar:2,2", "--attack", "cloner",
             "--trials", "4"],
            capsys,
        )
        assert code == 0
        assert out.strip().split("\r\n")[1].split(",")[-1] == "true"

    def test_conjecture_scan_has_no_verdicts(self, capsys):
        code, out = run_cli(
            ["conjecture-scan", "--seed", "6", "--M", "2", "--d", "4", "--trials", "2"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\r\n")
        assert lines[0] == "M,d,t,value,stderr,reference,tolerance,pass"
        assert len(lines) == 3  # rank splits 3-1 and 2-2
        for line in lines[1:]:
            assert line.endswith(",,,")

    def test_selftest(self, capsys):
        code, out = run_cli(["selftest"], capsys)
        assert code == 0
        assert "false" not in out

    def test_selftest_checks_correctness(self, capsys):
        # the worst decryption failure over bb84:1's enumerated keys and 8 sampled haar keys
        code, out = run_cli(["selftest"], capsys)
        assert code == 0
        rows = {row["check"]: row for row in csv.DictReader(io.StringIO(out))}
        for check, tolerance in (("correctness_bb84:1", 1e-12), ("correctness_haar:2-1-1", 1e-9)):
            row = rows[check]
            assert (row["reference"], float(row["tolerance"])) == ("0", tolerance)
            assert 0 <= float(row["value"]) <= tolerance and row["pass"] == "true"


@pytest.mark.parametrize(
    "args",
    [
        # fixed-point iterates that once left the PSD cone and exited 2
        ["seesaw", "--scheme", "uniform_haar:3,2", "--channel", "measure_share",
         "--trials", "6", "--seed", "17"],
        ["seesaw", "--scheme", "uniform_haar:3,2", "--channel", "measure_share",
         "--trials", "6", "--seed", "644865884"],
        ["conjecture-scan", "--M", "3", "--d", "6", "--trials", "3", "--seed", "1383146204"],
    ],
)
def test_fixed_point_effects_stay_psd(args, capsys):
    code, out = run_cli(args, capsys)
    assert code == 0
    verdicts = [line.split(",")[-1] for line in out.strip().split("\r\n")[1:]]
    assert verdicts and all(v in ("true", "") for v in verdicts)


def _columns(out: str, name: str) -> list[str]:
    return [row[name] for row in csv.DictReader(io.StringIO(out))]


# value and reference columns of seesaw reports, recorded before the seesaw
# ran as one stacked problem; None is an empty reference column
_GOLDEN_SEESAW = [
    (["seesaw", "--scheme", "bb84:2", "--channel", "cloner", "--trials", "4", "--seed", "7"],
     [0.33100596729824394], [0.25]),
    (["seesaw", "--scheme", "uniform_haar:2,3", "--channel", "measure_share",
      "--trials", "60", "--seed", "3"],
     [0.6532867029611094], [0.6532867029611094]),
    (["conjecture-scan", "--M", "2", "--d", "8", "--trials", "6", "--seed", "11"],
     [0.5624999999999999, 0.5312499999999997, 0.520833333333333, 0.5156249999999999],
     [None] * 4),
    (["conjecture-scan", "--M", "3", "--d", "6", "--trials", "3", "--seed", "40"],
     [0.40161973665164225, 0.39200371419516933, 0.3720842277021726], [None] * 3),
    # the Breidbart optimum 1/2 + 1/(2 sqrt 2), warm start and reference alike
    (["seesaw", "--scheme", "bb84:1", "--channel", "measure_share:breidbart",
      "--trials", "4", "--seed", "1"],
     [0.8535533905932736], [0.8535533905932736]),
]


@pytest.mark.parametrize("args, values, references", _GOLDEN_SEESAW)
def test_seesaw_golden_values(args, values, references, capsys):
    code, out = run_cli(args, capsys)
    assert code == 0
    got = [float(v) for v in _columns(out, "value")]
    assert got == pytest.approx(values, abs=1e-9, rel=0)
    for text, ref in zip(_columns(out, "reference"), references, strict=True):
        assert text == "" if ref is None else abs(float(text) - ref) <= 1e-9


@pytest.mark.parametrize(
    "args",
    [
        ["seesaw", "--scheme", "uniform_haar:2,3", "--channel", "measure_share",
         "--trials", "60", "--seed", "3"],
        ["seesaw", "--scheme", "bb84:2", "--channel", "cloner", "--trials", "4", "--seed", "7"],
        ["conjecture-scan", "--M", "3", "--d", "6", "--trials", "3", "--seed", "40"],
        ["conjecture-scan", "--M", "2", "--d", "8", "--trials", "6", "--seed", "5"],
    ],
)
def test_key_chunking_does_not_change_reports(args, capsys, monkeypatch):
    # one key per chunk, and chunks of a few keys with a short last one, must print what
    # the default chunks print: 24 000 entries hold 19 of the 60-key seesaw's 1224-entry
    # keys (three chunks and one of 3) and 4 of conjecture-scan --M 2 --d 8's 5904 (4 and 2)
    _, default = run_cli(args, capsys)

    def recorded(count, per_key):
        chunks = config.key_chunks(count, per_key)
        steps.append(chunks[0].stop - chunks[0].start)
        return chunks

    monkeypatch.setattr(optimize, "key_chunks", recorded)
    for budget in (1, 24_000):
        monkeypatch.setattr(config, "KEY_CHUNK_ENTRIES", budget)
        steps = []
        _, chunked = run_cli(args, capsys)
        assert chunked == default, budget
    # the second budget has room for several keys in every chunk
    assert min(steps) >= 2


def _seesaw_chunks(argv, capsys, monkeypatch):
    # exit code, report and the key count of every _seesaw call of one run
    calls = []
    seesaw = optimize._seesaw

    def counted(rho, *args):
        calls.append(len(rho))
        return seesaw(rho, *args)

    monkeypatch.setattr(optimize, "_seesaw", counted)
    return (*run_cli(argv, capsys), calls)


def test_sixty_key_seesaw_runs_as_one_lockstep_chunk(capsys, monkeypatch):
    # 107 of its 1224-entry keys fit in the 2^17-entry budget, so all 60 keys are one
    # _seesaw call
    code, _, calls = _seesaw_chunks(["seesaw", "--scheme", "uniform_haar:2,3", "--channel",
                                     "measure_share", "--trials", "60", "--seed", "3"],
                                    capsys, monkeypatch)
    assert code == 0
    assert calls == [60]


def test_scan_splits_share_lockstep_chunks(capsys, monkeypatch):
    # a key holds 5904 entries, so three 6-key splits fit in the 2^17-entry budget and
    # the four splits are two _seesaw calls, not one per split
    code, report, calls = _seesaw_chunks(["conjecture-scan", "--M", "2", "--d", "8",
                                          "--trials", "6", "--seed", "1"], capsys, monkeypatch)
    assert code == 0
    assert len(report.splitlines()) == 1 + 4
    assert calls == [18, 6]


def test_scan_never_holds_all_its_keys(capsys, monkeypatch):
    # 133 splits of one key per chunk; drawing all 266 keys before the first chunk
    # peaked at 10.3 MB, drawing them chunk by chunk at 3.7 MB
    def zeros(rho, rows, dims, starts):
        return np.zeros(len(rho)), np.zeros(len(rho), dtype=int)

    monkeypatch.setattr(optimize, "_seesaw", zeros)
    argv = ["conjecture-scan", "--M", "3", "--d", "40", "--trials", "2", "--seed", "1"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(capsys.readouterr().out.splitlines()) == 1 + 133
    assert code == 0
    assert peak < 6 * 2**20


@pytest.mark.parametrize(
    "name, d, big_m",
    [
        (name, d, big_m)
        for name in cli._CHANNELS
        for d, big_m in ((2, 2), (6, 3), (8, 2))
        if d == 2 or not name.endswith(":breidbart")
    ],
)
def test_channel_check_counts_the_channel_it_builds(name, d, big_m):
    # the largest restart count the check passes follows from the channel _channel
    # builds: each start's lockstep row holds both receivers' effect stacks, its gathered
    # support blocks and the key's blocks copied to it; no seesaw is run at these counts
    scheme = schemes.uniform_haar_scheme(big_m, d // big_m)
    ch, atk = cli._channel(scheme, name)
    side = attacks.receiver_dim(scheme, ch)
    support = len(linalg._support(ch.left))
    row = 2 * big_m * (side * side + support * support)
    most = config.ENTRIES_CAP // row - 1 - (atk is not None)
    cli._check_channel(d, big_m, name, most)
    with pytest.raises(ValueError, match="seesaw stack"):
        cli._check_channel(d, big_m, name, most + 1)


@pytest.mark.parametrize(
    "args",
    [
        # the cloner's Kraus factor holds 257^2 x 256 > 2^24 entries
        ["conjecture-scan", "--M", "2", "--d", "256", "--trials", "2", "--seed", "1"],
        # measure-and-share's rank-one factors hold 258^3 > 2^24 entries
        ["seesaw", "--scheme", "uniform_haar:2,129", "--channel", "measure_share",
         "--trials", "2", "--seed", "1"],
        # refused from M and d alone, before any scheme of M ranks is built
        ["conjecture-scan", "--M", "1000000", "--d", "1000000", "--trials", "2", "--seed", "1"],
    ],
)
def test_oversize_seesaw_is_refused_before_allocating(args, capsys):
    tracemalloc.start()
    try:
        code = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    d = args[4] if args[0] == "conjecture-scan" else str(2 * int(args[2].split(",")[1]))
    assert "config error" in captured.err and f"d = {d}" in captured.err
    assert peak < 8 * 2**20


def test_one_channel_is_refused_by_one_check(capsys):
    # seesaw and meg refuse the same oversize channel with the same message
    errors = []
    for argv in (
        ["seesaw", "--scheme", "uniform_haar:2,129", "--channel", "measure_share",
         "--trials", "2", "--seed", "1"],
        ["meg", "--scheme", "uniform_haar:2,129", "--attack", "measure_share", "--seed", "1"],
    ):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert peak < 8 * 2**20
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert "the measure_share channel at d = 258" in errors[0]


def test_seesaw_on_the_support_runs_in_bounded_memory(capsys):
    # the dense (d+1)^4 layout of each key peaked at 48 MB here; its support blocks hold
    # 2 x 48^2 entries
    argv = ["conjecture-scan", "--M", "2", "--d", "24", "--trials", "2", "--seed", "1"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 4 * 2**20


@pytest.mark.parametrize("command", ["seesaw", "conjecture-scan"])
def test_oversize_restarts_are_refused_before_any_key_is_drawn(command, capsys, monkeypatch):
    # one key's 1000002 starts, each with two effect stacks and two blocks per message
    def no_draw(self, rng, n):
        raise AssertionError("a key was drawn")

    monkeypatch.setattr(QecmScheme, "sample_keys", no_draw)
    tracemalloc.start()
    try:
        code = main([command, "--restarts", "1000000", "--seed", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "config error" in captured.err and "with --restarts 1000000" in captured.err
    assert "more than the cap of 16777216" in captured.err
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "args",
    [
        ["theorem2", "--cases", "4x4;2x5000", "--seed", "1"],
        ["erlang", "--ns", "2,16777217", "--seed", "1"],
        # rank-one measure-and-share factors hold d^3 entries: 258^3 > 2^24
        ["meg", "--scheme", "uniform_haar:2,129", "--attack", "measure_share", "--seed", "1"],
        ["meg", "--scheme", "uniform_haar:2,300", "--attack", "cloner", "--seed", "1"],
        # lemma1's cloner, and key lists refused before any key is drawn
        ["lemma1", "--scheme", "uniform_haar:2,5000", "--trials", "2", "--seed", "1"],
        ["lemma1", "--scheme", "uniform_haar:2,8", "--trials", "1000000", "--seed", "1"],
        ["seesaw", "--scheme", "uniform_haar:2,3", "--channel", "measure_share",
         "--trials", "1000000", "--seed", "1"],
        ["meg", "--scheme", "uniform_haar:2,5", "--trials", "1000000", "--seed", "1"],
        ["conjecture-scan", "--M", "2", "--d", "8", "--trials", "1000000", "--seed", "1"],
        # 807151588 rank splits of 10 ranks, with a cloner (201^2 x 200) within the cap
        ["conjecture-scan", "--M", "10", "--d", "200", "--trials", "2", "--seed", "1"],
        # a key list within the cap whose ciphertext stack, which meg holds, is not
        ["meg", "--scheme", "uniform_haar:4,2", "--trials", "100000", "--seed", "1"],
    ],
)
def test_oversize_monte_carlo_and_meg_input_is_refused_before_allocating(args, capsys):
    tracemalloc.start()
    try:
        code = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "config error" in captured.err and "more than the cap of 16777216" in captured.err
    assert peak < 8 * 2**20


def test_partition_count_is_the_number_of_splits():
    # the recurrence conjecture-scan sizes its split list with, before it lists it
    for parts in range(1, 7):
        for total in range(parts, 16):
            assert cli._partition_count(total, parts) == len(cli._partitions(total, parts))


def test_meg_at_d64_runs_in_bounded_memory(capsys):
    # d rank-one Kraus factors (d^3 entries) and their Choi factor, never d^4
    tracemalloc.start()
    try:
        code = main(["meg", "--scheme", "uniform_haar:2,32", "--attack", "measure_share",
                     "--trials", "1", "--seed", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.endswith(",1e-08,true\r\n")
    assert peak < 64 * 2**20


# erlang reports recorded when each row's trials were first split over two
# spawned lanes; the last, recorded with a --rate of 0.3 that changed no
# byte before the option went, has a row wider than the block
_PINNED_ERLANG = [
    (
        ["erlang", "--ns", "2,4,64,1024", "--trials", "16000", "--seed", "1"],
        "n,trials,value,stderr,reference,tolerance,pass\r\n"
        "2,16000,0.749446024534,0.00114563882026,0.02285,0.00343691646078,true\r\n"
        "4,16000,0.521962974193,0.00103457608838,0.02285,0.00310372826514,true\r\n"
        "64,16000,0.0742029953236,0.00014054730798,0.004284375,0.000421641923941,true\r\n"
        "1024,16000,0.00732348650519,9.65740579049e-06,0.0004462890625,2.89722173715e-05,true\r\n",
    ),
    (
        ["erlang", "--ns", "2,4,64,1024", "--trials", "16000", "--seed", "7919"],
        "n,trials,value,stderr,reference,tolerance,pass\r\n"
        "2,16000,0.750523088382,0.00114066271838,0.02285,0.00342198815515,true\r\n"
        "4,16000,0.521960209999,0.00104102880178,0.02285,0.00312308640534,true\r\n"
        "64,16000,0.0742549726732,0.00013979892109,0.004284375,0.000419396763269,true\r\n"
        "1024,16000,0.00733551709265,9.7102494195e-06,0.0004462890625,2.91307482585e-05,true\r\n",
    ),
    (
        ["erlang", "--ns", "3,1000,70000", "--trials", "200", "--seed", "9"],
        "n,trials,value,stderr,reference,tolerance,pass\r\n"
        "3,200,0.605823046804,0.00928816839069,0.0241442620943,0.0278645051721,true\r\n"
        "1000,200,0.00741325058974,8.14497614701e-05,0.000455436341809,0.00024434928441,true\r\n"
        "70000,200,0.000168902474999,1.264423036e-06,1.05077796526e-05,3.793269108e-06,true\r\n",
    ),
]


_PINNED_IDS = ["seed-1", "seed-7919", "seed-9-rate-0.3"]

_RANDOM_RANKS = '{"type": "haar", "M": 2, "d": 3, "tdist": [[[1, 2], 0.5], [[2, 1], 0.5]]}'
_RANDOM_RANKS_CSV = '"' + _RANDOM_RANKS.replace('"', '""') + '"'

# reports of subcommands that run every key-averaging evaluator, recorded while
# those evaluators still took a key count and a generator next to the key list
# (theorem2's when its Haar schemes first drew one unitary per trial)
_PINNED_REPORTS = [
    (
        ["lemma1", "--seed", "1"],
        "scheme,m0,alpha,mu,value,bound,reference,tolerance,pass\r\n"
        "bb84:1,0,0.25,1,0.5625,0.5625,0.5625,1e-09,true\r\n",
    ),
    (
        ["lemma1", "--scheme", "uniform_haar:2,4", "--trials", "4", "--seed", "1"],
        "scheme,m0,alpha,mu,value,bound,reference,tolerance,pass\r\n"
        '"uniform_haar:2,4",0,0.25,0.25,0.515625,0.515625,0.515625,1e-09,true\r\n',
    ),
    (
        ["theorem2", "--cases", "4x4;16x16", "--trials", "300", "--seed", "2"],
        "M,d,trials,value,stderr,floor,reference,tolerance,pass\r\n"
        "4,4,300,0.521296705541,0.00467171922448,0.25,0.0057125,0.0140151576735,true\r\n"
        "16,16,300,0.211535002077,0.000866637623143,0.0625,0.004284375,0.00259991286943,true\r\n",
    ),
    (
        ["meg", "--seed", "5"],
        "scheme,attack,key_samples,lhs,rhs,value,reference,tolerance,pass\r\n"
        "bb84:1,measure_share,16,0.625,0.625,0,0,1e-08,true\r\n",
    ),
    (
        ["o2h"],
        "quantity,value,reference,tolerance,pass\r\n"
        "success,0.5625,0.5625,1e-09,true\r\n"
        "extraction,0,0,1e-12,true\r\n"
        "rhs,4.5,4.5,0,true\r\n",
    ),
    # seesaw references on random ranks, recorded while the measure-and-share reference
    # still averaged the decode values its warm start recorded: the cloner's 1/2 + mu/16
    # lies below the projector strategy's own value here
    (
        ["seesaw", "--scheme", _RANDOM_RANKS, "--channel", "cloner", "--trials", "6",
         "--seed", "3"],
        "scheme,channel,key_samples,value,stderr,reference,tolerance,pass\r\n"
        f"{_RANDOM_RANKS_CSV},cloner,6,0.5625,4.05396129633e-17,0.546875,1.00000000012e-06,"
        "true\r\n",
    ),
    (
        ["seesaw", "--scheme", _RANDOM_RANKS, "--channel", "measure_share", "--trials", "6",
         "--seed", "3"],
        "scheme,channel,key_samples,value,stderr,reference,tolerance,pass\r\n"
        f"{_RANDOM_RANKS_CSV},measure_share,6,0.7360984325,0.0517049860614,0.7360984325,"
        "0.155115958184,true\r\n",
    ),
]


@pytest.mark.parametrize("args, report", _PINNED_ERLANG, ids=_PINNED_IDS)
def test_erlang_reports_are_pinned(args, report, capsys):
    assert run_cli(args, capsys) == (0, report)


@pytest.mark.parametrize("args, report", _PINNED_ERLANG, ids=_PINNED_IDS)
def test_erlang_block_size_does_not_change_reports(args, report, capsys, monkeypatch):
    # a block of one row draws the same exponentials in the same order
    monkeypatch.setattr(linalg, "LANE_BYTES", 1)
    assert run_cli(args, capsys) == (0, report)


@pytest.mark.parametrize(
    "args, report",
    _PINNED_REPORTS,
    ids=["lemma1", "lemma1-haar", "theorem2", "meg", "o2h", "seesaw-cloner", "seesaw-measure"],
)
def test_key_averaged_reports_are_pinned(args, report, capsys):
    assert run_cli(args, capsys) == (0, report)


@pytest.mark.parametrize(
    "args",
    [
        ["theorem2", "--cases", "4x4;16x16", "--trials", "300", "--seed", "2"],
        ["erlang", "--ns", "2,4,64,1024", "--trials", "16000", "--seed", "1"],
    ],
)
def test_worker_count_does_not_change_reports(args, capsys, monkeypatch):
    # the lanes run side by side or in turn on the caller; either way the same bytes
    default = run_cli(args, capsys)
    for cpus in (1, 2):
        monkeypatch.setattr(linalg, "_cpu_count", lambda: cpus)
        assert run_cli(args, capsys) == default


class TestDeterminism:
    def test_byte_identical_csv(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code = main(
                ["erlang", "--seed", "42", "--ns", "2,4", "--trials", "4000",
                 "--out", str(p)]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_output(self, tmp_path):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["erlang", "--seed", "1", "--ns", "16", "--trials", "4000", "--out", str(pa)])
        main(["erlang", "--seed", "2", "--ns", "16", "--trials", "4000", "--out", str(pb)])
        assert pa.read_bytes() != pb.read_bytes()


class TestJsonAndConfig:
    def test_json_output(self, capsys):
        code, out = run_cli(["o2h", "--json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["quantity"] == "success"
        assert all(row["pass"] for row in rows)

    def test_config_file_with_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "ns": "4", "trials": 3000}))
        code, out = run_cli(
            ["erlang", "--config", str(cfg), "--trials", "2000"], capsys
        )
        assert code == 0
        row = out.strip().split("\r\n")[1].split(",")
        assert row[0] == "4"
        assert row[1] == "2000"  # CLI flag beats the config entry


class TestExitCodes:
    def test_missing_seed_is_usage_error(self, capsys):
        assert main(["erlang"]) == 1

    def test_unknown_scheme_is_usage_error(self, capsys):
        assert main(["lemma1", "--seed", "1", "--scheme", "rot13:1"]) == 1

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["erlang", "--config", str(bad), "--seed", "1"]) == 1

    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["theorem2", "--cases", "4x4", "--trials", "1", "--seed", "1"],
            ["erlang", "--ns", "2,4", "--trials", "1", "--seed", "1"],
            ["seesaw", "--trials", "1", "--seed", "1"],
            ["conjecture-scan", "--trials", "1", "--seed", "1"],
        ],
    )
    def test_single_trial_has_no_stderr_gate(self, args, capsys):
        # one sample has no standard error, so its 3-stderr tolerance would be 0
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err

    @pytest.mark.parametrize(
        "args",
        [
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
            # malformed option text and scheme descriptors
            ["theorem2", "--cases", "4x4x4"],
            ["erlang", "--ns", ","],
            ["lemma1", "--scheme", '{"type":"haar"}'],
            ["lemma1", "--scheme", '{"type":"haar","M":2,"d":2,"tdist":5}'],
            ["lemma1", "--scheme", '{"type":"bb84","n":null}'],
            # ranks that are not integers are refused, not truncated
            ["lemma1", "--scheme", '{"type":"haar","M":2,"d":2,"tdist":[[[1,1.5],1.0]]}'],
            ["lemma1", "--scheme", '{"type":"haar","M":2,"d":3,"tdist":[[[true,2],1.0]]}'],
            # key counts are checked whether keys are drawn or enumerated
            ["lemma1", "--trials", "0"],
            ["lemma1", "--trials", "-5"],
            ["meg", "--trials", "0"],
            ["conjecture-scan", "--trials", "0"],
            # a non-qubit Breidbart basis, unknown names, d not a multiple of M
            ["seesaw", "--scheme", "uniform_haar:3,2", "--channel", "measure_share:breidbart"],
            ["seesaw", "--channel", "bogus"],
            ["meg", "--attack", "bogus"],
            ["theorem2", "--cases", "2x3"],
            # descriptor counts that int() would truncate, and block counts that are zero or
            # not integers
            ["lemma1", "--scheme", '{"type":"bb84","n":1.9}'],
            ["lemma1", "--scheme", '{"type":"bb84","n":true}'],
            ["lemma1", "--scheme", '{"type":"bb84","n":"2"}'],
            ["lemma1", "--scheme", '{"type":"uniform_haar","M":2.5,"L":1}'],
            ["lemma1", "--scheme", '{"type":"haar","M":2,"d":3.9,"tdist":[[[1,2],1.0]]}'],
            ["erlang", "--ns", "4,0"],
            ["erlang", "--ns", "2.5"],
            # a mixing weight outside [0, 1] and restart counts below 1, named by their flag
            ["lemma1", "--alpha", "2"],
            ["lemma1", "--alpha", "nan"],
            ["seesaw", "--restarts", "0"],
            ["conjecture-scan", "--restarts", "-3"],
            # restart counts that would size an empty lockstep stack
            ["seesaw", "--scheme", "uniform_haar:10,1", "--channel", "measure_share",
             "--restarts", "-42", "--trials", "2"],
            ["conjecture-scan", "--M", "15", "--d", "19", "--restarts", "-193", "--trials", "2"],
        ],
    )
    def test_out_of_range_input_is_config_error(self, args, capsys):
        assert main(args + ["--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err
        assert "Traceback" not in captured.err
        # the message names an option together with its offending text
        flags = zip(args[1::2], args[2::2])
        assert any(flag in captured.err and value in captured.err for flag, value in flags)

    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_out_is_config_error(self, target, tmp_path, capsys):
        # a path in a directory that does not exist, and a directory
        out = str(tmp_path / target)
        assert main(["o2h", "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err
        assert out in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_out_is_refused_before_the_run(self, target, tmp_path, capsys, monkeypatch):
        # a missing directory or a directory path is refused before any work
        out = str(tmp_path / target)
        calls = []
        _, defaults = cli._SUBCOMMANDS["theorem2"]
        monkeypatch.setitem(cli._SUBCOMMANDS, "theorem2", (calls.append, defaults))
        assert main(["theorem2", "--seed", "2", "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err
        assert out in captured.err
        assert "Traceback" not in captured.err
        assert calls == []

    @pytest.mark.parametrize(
        "args, code",
        [
            # an invariant failure (exit 2) and a config error (exit 1) inside the run
            (["meg", "--seed", "7", "--scheme", "haar:3-1", "--attack", "cloner"], 2),
            (["lemma1", "--seed", "1", "--scheme", "uniform_haar:2,1", "--m0", "5"], 1),
        ],
    )
    def test_failed_run_leaves_no_out_file(self, args, code, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(args + ["--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("from_config", [False, True])
    def test_negative_seed_is_named(self, from_config, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": -1}))
        argv = ["--config", str(path)] if from_config else ["--seed", "-1"]
        assert main(["erlang"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed" in captured.err and "-1" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "config",
        [
            {"trails": 5},
            {"trials": None},
            {"trials": "many"},
            {"scheme": 5},
            {"alpha": True},
            [1, 2],
            # read as the flag's text would be: --trials 2.7 is no int either
            {"trials": 2.7},
            {"seed": 1.5},
            {"m0": 1.9},
            {"restarts": 1.5},
        ],
    )
    def test_bad_config_entry_is_config_error(self, config, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        # restarts is a seesaw option, so its value is read, not refused as unknown
        command = "seesaw" if "restarts" in config else "lemma1"
        assert main([command, "--seed", "1", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err

    def test_config_text_reads_as_its_flag(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trials": "3000"}))
        argv = ["erlang", "--seed", "9", "--ns", "4"]
        code, from_config = run_cli(argv + ["--config", str(path)], capsys)
        assert code == 0
        assert from_config == run_cli(argv + ["--trials", "3000"], capsys)[1]

    @pytest.mark.parametrize(
        "args",
        [
            ["seesaw", "--seed", "1", "--alpha", "2"],
            ["o2h", "--seed", "3"],
            # erlang takes no --rate: the ratio it estimates is scale free
            ["erlang", "--seed", "1", "--rate", "nan"],
            ["erlang", "--seed", "1", "--rate", "inf"],
        ],
    )
    def test_flag_of_another_subcommand_is_usage_error(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "command, options",
        [
            ("lemma1", {"scheme", "m0", "alpha", "trials", "seed"}),
            ("theorem2", {"cases", "trials", "seed"}),
            ("o2h", set()),
            ("erlang", {"ns", "trials", "seed"}),
            ("seesaw", {"scheme", "channel", "trials", "restarts", "seed"}),
            ("meg", {"scheme", "attack", "trials", "seed"}),
            ("conjecture-scan", {"M", "d", "trials", "restarts", "seed"}),
            ("selftest", set()),
        ],
    )
    def test_help_lists_only_own_options(self, command, options, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"--(\w+)", capsys.readouterr().out))
        assert flags - {"help", "config", "out", "json"} == options

    def test_invariant_violation_exits_two(self, capsys):
        # non-uniform ranks make the average ciphertext key dependent,
        # which the monogamy-game construction must reject
        code = main(
            ["meg", "--seed", "7", "--scheme", "haar:3-1", "--attack", "cloner",
             "--trials", "3"]
        )
        assert code == 2


def test_console_script_installed():
    # the package runs from its source tree whether or not it is installed
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "uncloneq.cli", "o2h"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0
    assert "0.5625" in out.stdout


def test_package_runs_as_a_module():
    # python -m uncloneq is the same command line
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-m", "uncloneq", "o2h"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith(b"quantity,value,reference,tolerance,pass\r\nsuccess,0.5625,")


def test_readme_quoted_budgets_match_the_code():
    # each size budget README quotes, found by the words around it, is the constant's value
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    key = optimize.seesaw_key_entries(2, 6, 6, 2, True)
    row = key - optimize.seesaw_key_entries(2, 6, 6, 1, True)
    quoted = [
        (r"in chunks of at most 2\^(\d+) complex entries", 2, linalg._KERNEL_ENTRIES),
        (r"Monte Carlo lane budget of 2\^(\d+) bytes", 2, linalg.LANE_BYTES),
        (r"over (\d+) (?:spawned )?lanes", None, linalg._LANES),
        (r"a chunk holds at most 2\^(\d+) complex entries", 2, config.KEY_CHUNK_ENTRIES),
        (r"(?:exceeds|more than|cap of|>) 2\^(\d+)", 2, config.ENTRIES_CAP),
        # one start's row, one key and the keys of a chunk of the uniform_haar:2,3
        # measure-and-share seesaw: M = 2, side = s = 6, a warm start and two restarts
        (r"each start's row holds (\d+) entries", None, row),
        (r"and a key (\d+), so", None, key),
        (r"so (\d+) keys fit in one chunk", None, config.KEY_CHUNK_ENTRIES // key),
    ]
    for pattern, base, value in quoted:
        found = re.findall(pattern, readme)
        assert found, pattern
        for text in found:
            assert (int(text) if base is None else base ** int(text)) == value, (pattern, text)


def test_readme_command_lines_parse():
    # each uncloneq line of README's code blocks parses and merges, unrun, and is in the
    # report battery
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```\n(.*?)^```", readme, flags=re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines()]
    commands = [
        shlex.split(line, comments=True)[1:] for line in lines if line.startswith("uncloneq ")
    ]
    assert commands
    parser = _build_parser()
    for argv in commands:
        # an unknown flag or bad value exits; a missing --seed raises ValueError
        _merge_options(parser.parse_args(argv))
        assert argv in report_battery.ARGV, argv
