"""The benchmark's workloads: shipped configs plus configs drawn from a seed.

Every pass of a workload runs each of its configs once.  The shipped
configs come from ``configs/`` in full mode; the generated ones are drawn
from ``--seed`` with fixed sizes, so only positions and values depend on
the seed.  See DESIGN.md for why each workload exists.
"""

from __future__ import annotations

import math
import random

TWO_PI = 2.0 * math.pi


def _polar(rng: random.Random, r_lo: float, r_hi: float) -> tuple[float, float]:
    r = rng.uniform(r_lo, r_hi)
    t = rng.uniform(0.0, TWO_PI)
    return r * math.cos(t), r * math.sin(t)


def hardy_config(rng: random.Random) -> dict:
    """rkt-hardy on an inline measure: 3 atoms, 5 boundary breakpoints,
    2x2 area-density cells, p drawn from {1.5, 3, 4}."""
    atoms = []
    for _ in range(3):
        re, im = _polar(rng, 0.2, 0.95)
        atoms.append({"re": re, "im": im, "mass": rng.uniform(0.05, 0.5)})
    breakpoints = sorted(rng.uniform(0.0, TWO_PI) for _ in range(5))
    radial = rng.uniform(0.3, 0.8)
    angular = rng.uniform(0.5, TWO_PI - 0.5)
    return {
        "kind": "rkt-hardy",
        "seed": rng.randrange(2**31),
        "measure": {
            "atoms": atoms,
            "boundary_density": {
                "breakpoints": breakpoints,
                "values": [rng.uniform(0.02, 0.3) for _ in breakpoints],
            },
            "area_density": {
                "radial_breaks": [0.0, radial, 1.0],
                "angular_breaks": [0.0, angular, TWO_PI],
                "values": [[rng.uniform(0.05, 0.5) for _ in range(2)] for _ in range(2)],
            },
        },
        "p": rng.choice([1.5, 3.0, 4.0]),
        "grid": {"levels": 12, "angles": 32},
        "polynomials": {"count": 100, "max_degree": 24},
    }


def pw_config(rng: random.Random) -> dict:
    """pw-counterexample at truncation 4096 with a 128x128 scan rectangle
    (4 wide, 4 high) placed by the seed."""
    re0 = rng.uniform(-60.0, 56.0)
    im_mid = rng.uniform(-1.0, 1.0)
    return {
        "kind": "pw-counterexample",
        "truncation": 4096,
        "scan": {"re": [re0, re0 + 4.0], "im": [im_mid - 2.0, im_mid + 2.0], "resolution": [128, 128]},
        "gram_truncations": [16],
    }


def theorem2_config(rng: random.Random) -> dict:
    """theorem2 with 8 zeros in |a| <= 0.9 and a random Clark angle."""
    zeros = []
    for _ in range(8):
        re, im = _polar(rng, 0.0, 0.9)
        zeros.append({"re": re, "im": im})
    return {
        "kind": "theorem2",
        "zeros": zeros,
        "alpha_angle": rng.uniform(0.0, TWO_PI),
        "epsilon": None,
        "grid": {"rings": 64, "angles": 512},
        "delta_list": [0.05, 0.1, 0.2, 0.4],
    }


# name -> (shipped config stems under configs/, generator of the seeded config)
WORKLOADS = {
    "hardy-quadrature": (("rkt_hardy", "phi_h"), hardy_config),
    "sinc-counterexample": (("pw_counterexample",), pw_config),
    "model-space-windows": (
        ("theorem2_z8", "theorem2_two_zeros", "windows", "windows_half_circle"),
        theorem2_config,
    ),
}


def generated_config(workload: str, seed: int) -> dict:
    """The seeded config of a workload; the same seed gives the same config."""
    _, generate = WORKLOADS[workload]
    return generate(random.Random(f"{workload}:{seed}"))
