"""Registry mapping experiment names to their drivers.

The one-shot CLI (``phantom-delay <experiment>``) and the campaign service
(``repro.service``) both dispatch through this table: it is the one place
a name resolves to a driver, a renderer, and an exit-status rule, and the
CLI generates one subcommand per entry.  Keeping all three together is
what makes a served result provably equivalent to the one-shot command:
both sides call the same driver with the same kwargs/seed and render with
the same function.

Every registered ``run`` callable accepts ``**kwargs`` from the spec plus
``seed=`` and ``runner=`` (a pre-built :class:`~repro.parallel.CampaignRunner`
carrying the service's shared pool, cache policy, per-job manifest path,
cancel signal, and progress observer).  Drivers without shards run
in-process and ignore ``runner``.  Tests may :func:`register` their own
experiments and :func:`unregister` them afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: driver + renderer + CLI status rule."""

    name: str
    run: Callable[..., Any]
    render: Callable[[Any], str]
    #: Maps the driver's result to the exit status the one-shot CLI
    #: returns for it (0 = every row matched expectations).
    status: Callable[[Any], int]
    #: The CLI subcommand's help text.
    description: str = ""


_REGISTRY: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec, replace: bool = False) -> ExperimentSpec:
    """Add an experiment; refuses to shadow an existing name by accident."""
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"experiment {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    _REGISTRY.pop(name, None)


def get_experiment(name: str) -> ExperimentSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: "
            + ", ".join(experiment_names())
        ) from None


def experiment_names() -> list[str]:
    return sorted(_REGISTRY)


def _all_pass(predicate: Callable[[Any], bool]) -> Callable[[Any], int]:
    return lambda rows: 0 if all(predicate(r) for r in rows) else 1


def _in_process(driver: Callable[..., Any]) -> Callable[..., Any]:
    """The registry call for a driver that runs without shards."""
    return lambda seed=7, runner=None: driver(seed=seed)


def _ablations_status(rows: Any) -> int:
    """Forged ACKs cause no retransmission, and the paper's 2 s margin
    avoids every timeout."""
    forged = next(r for r in rows[0] if r.forge_acks)
    paper = next(r for r in rows[1] if r.margin == 2.0)
    return 0 if forged.retransmissions == 0 and paper.timeouts_avoided == paper.trials else 1


def _jamming_status(rows: Any) -> int:
    phantom = next(r for r in rows if r.mode == "phantom-delay")
    return 0 if phantom.silent and phantom.event_delivered else 1


def _register_builtins() -> None:
    from .ablations import render_ablations, run_ablations
    from .countermeasures import render_countermeasures, run_countermeasures
    from .findings import render_findings, run_findings
    from .jamming_contrast import render_jamming_contrast, run_jamming_contrast
    from .recognition import render_recognition, run_recognition
    from .robustness import render_robustness, run_robustness
    from .table1 import render_table1, run_table1
    from .table2 import render_table2, run_table2
    from .table3 import render_table3, run_figure3, run_table3
    from .tls_integrity import render_integrity, run_integrity_experiment
    from .verification import render_verification, run_verification

    reproduced = _all_pass(lambda r: r.consequence_reproduced and r.stealthy)
    for spec in (
        ExperimentSpec("table1", run_table1, render_table1,
                       _all_pass(lambda r: r.matches_expectation()),
                       "Table I: cloud device timeout profiling"),
        ExperimentSpec("table2", run_table2, render_table2,
                       _all_pass(lambda r: r.matches_expectation),
                       "Table II: HomeKit device profiling"),
        ExperimentSpec("table3", run_table3, render_table3, reproduced,
                       "Table III: the 11 PoC attack cases"),
        ExperimentSpec("figure3", run_figure3,
                       lambda rows: render_table3(
                           rows, title="Figure 3 — the four illustrated attacks"),
                       reproduced, "Figure 3: the four illustrated attacks"),
        ExperimentSpec("verify", run_verification, render_verification,
                       _all_pass(lambda r: r.success_rate == 1.0),
                       "Section VI-C verification test"),
        ExperimentSpec("robustness", run_robustness, render_robustness,
                       _all_pass(lambda r: r.success and r.violations == 0),
                       "attack success over a loss x jitter grid with invariants audited"),
        ExperimentSpec("findings", _in_process(run_findings),
                       lambda rows: render_findings(*rows),
                       lambda rows: 0 if rows[0].reproduced and rows[2].reproduced else 1,
                       "Findings 1-3"),
        ExperimentSpec("countermeasures", run_countermeasures,
                       lambda rows: render_countermeasures(*rows), lambda rows: 0,
                       "Section VII defences"),
        ExperimentSpec("integrity", _in_process(run_integrity_experiment),
                       render_integrity, _all_pass(lambda r: r.matches_paper),
                       "TLS integrity vs delay"),
        ExperimentSpec("jamming", _in_process(run_jamming_contrast),
                       render_jamming_contrast, _jamming_status,
                       "phantom delay vs packet discarding (extension)"),
        ExperimentSpec("recognition", _in_process(run_recognition), render_recognition,
                       lambda report: 0 if report.accuracy == 1.0 else 1,
                       "device recognition accuracy (extension)"),
        ExperimentSpec("ablations", run_ablations, lambda rows: render_ablations(*rows),
                       _ablations_status,
                       "ablations: forged ACKs, release margin, keep-alive pattern"),
    ):
        register(spec)


_register_builtins()
