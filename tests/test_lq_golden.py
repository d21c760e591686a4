"""Full-precision golden of the LQ API.

Eight fixed ``random_lq_instance``s (two of them 1e-7 from the
saddle-node, one on each side) go through ``find_equilibria``,
``comparative_statics`` and ``disparity_report``; every float of the
answers is pinned as its ``float.hex`` string in ``lq_golden.json``, so a
last-bit drift shows, as the 9-digit CLI goldens cannot.  A change that
moves any of these bits regenerates the file with
``PYTHONPATH=src python tests/test_lq_golden.py`` and states the drift
in CHANGES.md.

The values were recorded with Python 3.11, numpy 2.4 and scipy 1.17 on
x86-64.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from berklab import comparative_statics, disparity_report, find_equilibria

from helpers import random_lq_instance

GOLDEN = Path(__file__).with_name("lq_golden.json")

# (rng seed, delta_mu, comparative-statics lever, rel_step, delta_m, delta_w);
# seeds 6 and 7 sit 1e-7 below and above their saddle-node d, the smaller
# delta_mu at which the fixed-point quadratic's discriminant vanishes
INSTANCES = {
    "unique_under": (0, -0.5, "lambda_e", 0.01, 0.05, -0.5),
    "small_under": (1, -0.05, "delta", -0.01, 0.05, -0.05),
    "no_misspecification": (2, 0.0, "c", 0.02, 0.1, -0.1),
    "three_over": (3, 0.25, "kappa", -0.02, 0.1, -0.2),
    "corner_over": (4, 0.3, "delta_mu", 0.01, 0.2, -0.3),
    "large_over": (5, 0.8, "lambda_e", -0.01, 0.02, -0.8),
    "below_saddle_node": (6, 0.37335011333644075 - 1e-7, "delta_mu", 0.01,
                          0.37335011333644075 - 1e-7, -0.3),
    "above_saddle_node": (7, 0.15872439165315608 + 1e-7, "kappa", 0.01,
                          0.15, -0.15872439165315608),
}


def _hex(value):
    """Floats as ``float.hex`` strings, through tuples, lists and dicts."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_hex(v) for v in value]
    return value


def _answers(seed, delta_mu, lever, rel_step, delta_m, delta_w) -> dict:
    model = random_lq_instance(np.random.default_rng(seed), delta_mu)
    points = [[p.beta_hat, p.h_hat, p.kl, p.residual, p.slope, p.stability,
               p.is_sce] for p in find_equilibria(model)]
    statics = dataclasses.asdict(comparative_statics(model, lever, rel_step))
    disparity = dataclasses.asdict(disparity_report(model, delta_m, delta_w))
    return _hex({"equilibria": points, "comparative_statics": statics,
                 "disparity_report": disparity})


@pytest.mark.parametrize("name", INSTANCES)
def test_lq_api_keeps_its_bits(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = _answers(*INSTANCES[name])
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    table = {name: _answers(*args) for name, args in INSTANCES.items()}
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
