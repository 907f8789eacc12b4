"""Config fuzzing: a small valid document of each kind with one mutation.

Whatever the mutation, ``main`` must keep the exit-code contract: it
returns 0-3 without raising, names a field path on every exit 2, and
leaves no output directory on exit 2 or 3.  An unknown field, at any
depth, exits 2 naming its own path.
"""

import copy
import json
import logging
import math
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rktlab.cli import EXIT_CONFIG, EXIT_PRECISION, main

SMALL_DOCS = [
    {
        "kind": "windows",
        "seed": 1,
        "measure": {
            "atoms": [{"re": 0.5, "im": 0.0, "mass": 1.0}],
            "boundary_density": {"breakpoints": [0.0, 2.0], "values": [0.25, 0.5]},
            "area_density": {"radial_breaks": [0.0, 1.0], "angular_breaks": [0.0, 6.0], "values": [[0.2]]},
        },
        "max_depth": 2,
        "refine_arc": {"center": 0.0, "length": 1.0},
        "refine_depths": [0.5, 0.25],
    },
    {
        "kind": "rkt-hardy",
        "seed": 2,
        "measure": {"builtin": "normalized_arclength", "scale": 1.0},
        "p": 2.0,
        "grid": {"levels": 1, "angles": 2},
        "polynomials": {"count": 2, "max_degree": 3},
    },
    {
        "kind": "phi-h",
        "arc": {"center": 0.0, "length": 0.5},
        "p": 2.0,
        "h_exponents": [2, 3],
        "sup_grid": {"rings": 1, "angles": 2},
    },
    {
        "kind": "pw-counterexample",
        "truncation": 1024,
        "scan": {"re": [0.0, 1.0], "im": [-1.0, 1.0], "resolution": [64, 64]},
        "witness": {"length": 256.0, "rate": 8},
        "gram_truncations": [4],
    },
    {
        "kind": "theorem2",
        "seed": 3,
        "zeros": [{"re": 0.3, "im": 0.1}, {"re": -0.2, "im": 0.4}],
        "alpha_angle": 0.5,
        "epsilon": None,
        "grid": {"rings": 2, "angles": 4},
        "delta_list": [0.2],
    },
]


def paths(node, prefix=()):
    """Every path to a value inside the document, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def config_path(path):
    """The name the CLI gives a path inside the document: config.a[0].b"""
    return "config" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def negative(v):
    return -abs(v) - 1 if isinstance(v, (int, float)) and not isinstance(v, bool) else -1


def out_of_range(v):
    return 10**6 if isinstance(v, int) and not isinstance(v, bool) else 1e300


SET = {
    "wrong type": lambda v: "x",
    "list for a value": lambda v: [v],
    "negative": negative,
    "out of range": out_of_range,
    "nan": lambda v: math.nan,
    "-inf": lambda v: -math.inf,
    "400-digit integer": lambda v: int("9" * 400),  # beyond the float range
}


@st.composite
def mutated_docs(draw):
    """A mutated document, and the path of the field it gained when the
    mutation is an unknown field (None otherwise)."""
    doc = copy.deepcopy(draw(st.sampled_from(SMALL_DOCS)))
    how = draw(st.sampled_from(["drop", "unknown field", "builtin scale", *SET]))
    if how == "builtin scale":
        doc["measure"] = {"builtin": draw(st.sampled_from(["normalized_arclength", "arclength", "upper_half_arclength"])),
                          "scale": draw(st.floats())}
        return doc, None
    if how == "unknown field":
        where = draw(st.sampled_from([()] + [w for w in paths(doc) if isinstance(lookup(doc, w), dict)]))
        lookup(doc, where)["bogus"] = 1
        return doc, config_path(where + ("bogus",))
    where = draw(st.sampled_from(list(paths(doc))))
    parent = lookup(doc, where[:-1])
    if how == "drop":
        del parent[where[-1]]
    else:
        parent[where[-1]] = SET[how](parent[where[-1]])
    return doc, None


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@given(case=mutated_docs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_one_mutation_keeps_the_exit_contract(case):
    doc, unknown = case
    records, logger = _Records(), logging.getLogger("rktlab")
    logger.addHandler(records)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "c.json", Path(tmp) / "o"
            cfg.write_text(json.dumps(doc))
            code = main(["run", "--config", str(cfg), "--out", str(out)])
            wrote_out = out.exists()
    finally:
        logger.removeHandler(records)
    assert code in range(4), doc
    if code == EXIT_CONFIG:
        assert any(re.match(r"config rejected: config\b", m) for m in records.messages), (doc, records.messages)
    if code in (EXIT_CONFIG, EXIT_PRECISION):
        assert not wrote_out, doc
    if unknown is not None:
        assert code == EXIT_CONFIG, doc
        assert f"config rejected: {unknown}: unknown field" in records.messages, (doc, records.messages)
