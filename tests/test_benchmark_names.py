"""The benchmark's per-layer metric names against the program.

The traced benchmark pass wraps the public functions of every rktlab
module and reports ``<module>.<function>.{calls,self_s,incl_s}`` for each
name listed in BENCHMARK.json, with ``_kernels`` written ``kernels``.  A
listed function that is renamed or deleted stops that pass with a
KeyError, so each one is checked here, with the rest of what the benchmark
reads from the program: the modules its tracer patches, the functions its
post hooks follow, and the backend its environment probe records.
"""

import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rktlab import _kernels, cli

ROOT = Path(__file__).resolve().parents[1]

# the benchmark's tracer, loaded read-only from its file
_spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
TIMED = sorted({m.groups() for m in (re.fullmatch(r"(\w+)\.(\w+)\.(?:calls|self_s|incl_s)", e["name"]) for e in PER_LAYER) if m})


def test_some_names_are_timed():
    assert len(TIMED) >= 20


@pytest.mark.parametrize("module,name", TIMED, ids=[".".join(t) for t in TIMED])
def test_names_a_public_function(module, name):
    mod = importlib.import_module("rktlab._kernels" if module == "kernels" else f"rktlab.{module}")
    # cli.runner is the self time the tracer sums over the experiment runners
    fns = list(cli._RUNNERS.values()) if (module, name) == ("cli", "runner") else [getattr(mod, name, None)]
    for fn in fns:
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not fn.__name__.startswith("_"), f"{module}.{name}"


def is_public_function(dotted: str) -> bool:
    """Whether ``<module>.<name>`` names a public function defined in rktlab.<module>."""
    module, name = dotted.rsplit(".", 1)
    mod = importlib.import_module(f"rktlab.{module}")
    fn = getattr(mod, name, None)
    return inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not fn.__name__.startswith("_")


HOOKED = sorted({*tracer._POST_HOOKS, "hardy.rkt_functional"})


@pytest.mark.parametrize("dotted", HOOKED)
def test_hooked_name_is_a_public_function(dotted):
    # the tracer's post hooks, and the rule count it takes under rkt_functional
    assert is_public_function(dotted), dotted


def test_active_backend_is_a_string():
    # perfbench/run.py records it in its environment probe
    assert isinstance(_kernels.ACTIVE_BACKEND, str)


def test_cli_import_loads_every_traced_module():
    # the tracer patches sys.modules["rktlab.<m>"] for each of its MODULES
    # right after the traced child imports rktlab.cli
    code = "import json, sys, rktlab.cli; print(json.dumps(sorted(m for m in sys.modules if m.startswith('rktlab.'))))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    loaded = json.loads(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout)
    assert {f"rktlab.{m}" for m in tracer.MODULES} <= set(loaded)
