"""Every public name of the library has a reader.

One small argv per subcommand branch runs in-process under
``sys.setprofile``, and under ``threading.setprofile`` in the threads it
starts.  Every function in a layer module's ``__all__``, and every public
method or property of a class there, must be reached by one of them or be
on ``ALLOWED`` with the reason it stays.  An allowed name
that a subcommand does reach, or that no longer exists, fails too, so the
list cannot go stale.
"""

import contextlib
import importlib
import inspect
import io
import sys
import threading

import pytest

from uncloneq import cli

MODULES = ("linalg", "schemes", "attacks", "meg", "optimize", "o2h", "stats")

BRANCHES = [
    ["lemma1", "--seed", "1"],  # enumerated bb84 keys
    ["lemma1", "--scheme", "uniform_haar:2,1", "--trials", "2", "--seed", "1"],  # sampled keys
    ["theorem2", "--cases", "4x4", "--trials", "20", "--seed", "1"],
    ["erlang", "--ns", "2,4", "--trials", "100", "--seed", "1"],
    ["o2h"],
    ["selftest"],
    ["seesaw", "--channel", "cloner", "--trials", "2", "--seed", "1"],
    ["seesaw", "--channel", "measure_share", "--trials", "2", "--seed", "1"],
    ["seesaw", "--channel", "measure_share:breidbart", "--trials", "2", "--seed", "1"],
    ["meg", "--attack", "cloner", "--trials", "2", "--seed", "1"],
    ["meg", "--attack", "measure_share", "--trials", "2", "--seed", "1"],
    ["conjecture-scan", "--M", "3", "--d", "3", "--trials", "2", "--seed", "1"],
]

ALLOWED = {
    "linalg.assert_projector": "validator the tests use; certified upper bounds (ROADMAP A) need it",
    "linalg.apply_channel": "the dense oracle of the support blocks; it moves to tests/oracles.py "
    "once ROADMAP M retargets benchmarks/tracer.py and benchmarks/tests, which read it",
    "schemes.QecmScheme.factor": "deriving encrypt from the factor (ROADMAP F2) needs it",
    "meg.meg_from_qecm": "certified upper bounds (ROADMAP A) build on the game route",
    "meg.meg_win_prob": "certified upper bounds (ROADMAP A) build on the game route",
    "optimize.discriminate": "single-problem entry point to the stacked solver",
}


def _surface() -> dict:
    """Qualified name to code object of every public function and method."""
    surface = {}
    for name in MODULES:
        mod = importlib.import_module(f"uncloneq.{name}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj):
                surface[f"{name}.{attr}"] = obj.__code__
            elif inspect.isclass(obj):
                for meth, member in vars(obj).items():
                    # a property's getter, a classmethod's function, or the function itself
                    fn = getattr(member, "fget", None) or getattr(member, "__func__", member)
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        surface[f"{name}.{attr}.{meth}"] = fn.__code__
    return surface


@pytest.fixture(scope="module")
def reached() -> set:
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    exits = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        # the Monte Carlo lanes also run on threads the calls start
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            for argv in BRANCHES:
                exits.append(cli.main(argv))
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    assert exits == [0] * len(BRANCHES), sink.getvalue()
    return codes


def test_every_public_name_is_reached_or_allowed(reached):
    unreached = [name for name, code in _surface().items() if code not in reached]
    assert sorted(set(unreached) - set(ALLOWED)) == []


def test_every_allowed_name_exists_and_is_unreached(reached):
    surface = _surface()
    stale = [name for name in ALLOWED if name not in surface or surface[name] in reached]
    assert stale == []
