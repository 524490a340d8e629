"""Tests of the benchmark entry point and its tracer.

Run from the repository root: ``python3 -m pytest benchmarks/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer as tr  # noqa: E402

cli = run.import_cli()
from uncloneq import attacks, linalg  # noqa: E402


def _spans_with_clock(times):
    """Spans recorded through ``Tracer.span`` with a scripted clock."""
    ticks = iter(times)
    t = tr.Tracer(clock=lambda: next(ticks))
    with t.span("a"):  # [0, 10]
        with t.span("b"):  # [1, 4]
            with t.span("c"):  # [2, 3]
                pass
        with t.span("d"):  # [5, 9]
            with t.span("d"):  # [6, 8], d below itself
                pass
    return t.spans


def test_self_time_of_nested_spans():
    spans = _spans_with_clock([0, 1, 2, 3, 4, 5, 6, 8, 9, 10])
    s = tr.summarize(spans)
    assert s["a"]["s"] == 10 and s["a"]["self_s"] == 10 - 3 - 4
    assert s["b"]["s"] == 3 and s["b"]["self_s"] == 3 - 1
    assert s["c"]["s"] == 1 and s["c"]["self_s"] == 1
    # inclusive time counts the outer d only; self time splits across both
    assert s["d"]["calls"] == 2
    assert s["d"]["s"] == 4 and s["d"]["self_s"] == (4 - 2) + 2
    assert sum(v["self_s"] for v in s.values()) == 10
    assert {sp.root for sp in spans} == {0}
    assert tr.count_below(spans, "d", "d") == 1
    assert tr.count_below(spans, "c", "a") == 1 and tr.count_below(spans, "a", "c") == 0


def _module_attrs():
    return {
        (name, attr): obj
        for name, mod in list(sys.modules.items())
        if name == "uncloneq" or name.startswith("uncloneq.")
        for attr, obj in vars(mod).items()
    }


def test_traced_run_restores_every_patched_attribute():
    before = _module_attrs()
    jobs = [["lemma1", "--scheme", "bb84:1", "--seed", "3"], ["theorem2", "--cases", "4x4", "--trials", "5", "--seed", "3"]]
    checker = run.Checker()
    run.run_pass(cli, jobs, checker)
    t = tr.Tracer()
    with t.installed():
        patched = list(t._patched)
        assert patched, "install patched nothing"
        # a name imported into another module is patched there too
        assert any(mod.__name__ == "uncloneq.meg" and attr == "pwin_unif_eval" for mod, attr, _ in patched)
        assert all(getattr(mod, attr) is not orig for mod, attr, orig in patched)
        run.run_pass(cli, jobs, checker, tracer=t)
    after = _module_attrs()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # the traced pass printed the same bytes as the untraced one
    assert checker.attempted == 4 and checker.failed == 0


def test_apply_channel_out_bytes_for_qubit_cloner():
    ch = attacks.superposition_cloner(2)
    rho = np.diag([1.0, 0.0]).astype(complex)
    t = tr.Tracer()
    with t.installed():
        out = linalg.apply_channel(ch, rho)
    assert out.shape == (9, 9)
    s = tr.summarize(t.spans)["linalg.apply_channel"]
    assert s["calls"] == 1 and s["out_bytes"] == 81 * 16


def test_scheme_closures_are_traced_per_trial():
    jobs = [["theorem2", "--cases", "4x4", "--trials", "7", "--seed", "5"]]
    t = tr.Tracer()
    with t.installed():
        run.run_pass(cli, jobs, run.Checker(), tracer=t)
    m = run.layer_metrics(t.spans)
    assert m["attacks.random_basis_attack_estimate.trials"] == 7
    assert m["schemes.key_sampler.calls"] == 7
    assert m["attacks.encrypt_per_trial"] == 4  # one ciphertext per message
    assert m["cli.theorem2.self_s"] > 0
    assert m["attacks.pwin_ind_eval.s"] == 0  # not reached: reported as 0
    assert set(m) | {"trace_overhead_s"} == set(run.per_layer_units())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_seed_and_pass_change_only_the_seed_values(workload):
    def strip(argv):
        i = argv.index("--seed")
        return argv[:i] + argv[i + 2 :], argv[i + 1]

    runs = [[strip(v) for v in run.job_argvs(workload, seed, k)] for seed, k in ((1, 0), (2, 0), (1, 1))]
    for jobs in runs:
        assert [argv for argv, _ in jobs] == run.WORKLOADS[workload]
    seeds = [[s for _, s in jobs] for jobs in runs]
    assert seeds[0] != seeds[1] and seeds[0] != seeds[2]
    assert run.job_argvs(workload, 1, 3) == run.job_argvs(workload, 1, 3)


def test_report_check():
    ok = "M,value,reference,tolerance,pass\r\n4,0.5,0.2,0.01,true\r\n"
    assert run.report_ok(ok)
    assert not run.report_ok(ok.replace("true", "false"))
    assert not run.report_ok("")
    scan = "M,d,t,value,stderr,reference,tolerance,pass\r\n3,6,2-2-2,0.37,0.0,,,\r\n"
    assert run.report_ok(scan)
    assert not run.report_ok(scan.replace("0.37", "0.2"))  # below 1/M


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
