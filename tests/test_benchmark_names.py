"""The benchmark's per-layer metric names against the program.

The traced benchmark pass wraps the public functions of every rktlab
module and reports ``<module>.<function>.{calls,self_s,incl_s}`` for each
name listed in BENCHMARK.json, with ``_kernels`` written ``kernels``.  A
listed function that is renamed or deleted stops that pass with a
KeyError, so each one is checked here.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

from rktlab import cli

PER_LAYER = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["per_layer"]
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
