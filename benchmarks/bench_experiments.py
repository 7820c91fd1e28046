"""Bench: regenerate every registered paper experiment end to end.

One case per entry of the experiment registry (Tables I-III, Figure 3,
the Section VI-C verification, Findings 1-3, the Section VII
countermeasures, the TLS-integrity and jamming contrasts, device
recognition and the ablations).  Each case calls the registered driver
once at its own default seed, prints the rendered artefact and requires
the exit status the one-shot CLI would return, 0.  The paper-specific
headline assertions live in the matching ``tests/`` files.

``robustness`` is skipped: its full loss x jitter grid over all 11 cases
is a long campaign of its own.
"""

from __future__ import annotations

import inspect

import pytest

from repro.experiments.registry import experiment_names, get_experiment

from conftest import bench_trials

#: Upper bound on ``REPRO_BENCH_TRIALS`` for each driver that takes trials.
TRIALS_CAP = {"table1": 20, "table2": 5, "verify": 10}


@pytest.mark.parametrize("name", experiment_names())
def test_experiment(once, name):
    if name == "robustness":
        pytest.skip("the full loss x jitter grid is too slow for a bench run")
    spec = get_experiment(name)
    params = {}
    if "trials" in inspect.signature(spec.run).parameters:
        params["trials"] = min(bench_trials(), TRIALS_CAP[name])
    rows = once(spec.run, **params)
    print()
    print(spec.render(rows))
    assert spec.status(rows) == 0
