"""The benchmark's three workloads, driven through the public drivers.

Each workload turns the workload seed into its inputs in :meth:`setup`
and then runs any number of identical *rounds*.  A round is one pass of
the workload's ops in this process at ``jobs=1``; it records into a
:class:`RoundResult` the latency of every op, how many ops failed their
output check, and one canonical digest of everything the round produced.  The caller gives every round a
fresh directory for its cache and manifests and empties the process-wide
TLS memos first, so every round starts as cold as a fresh process.

Driver seeds are the drivers' own defaults plus the workload seed, so
seed 0 runs exactly what the repository's tests pin.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.cache import CampaignCache
from repro.cache.keys import canonical
from repro.core.attacks.scenarios import TABLE3_SCENARIOS
from repro.devices.profiles import CATALOGUE
from repro.experiments.registry import get_experiment
from repro.experiments.verification import DEFAULT_LABELS
from repro.fleet import FleetRunner, run_fleet
from repro.fleet import engine as fleet_engine
from repro.parallel import CampaignRunner
from repro.parallel import runner as parallel_runner
from repro.search import TABLE3_EXPECTED, plan_specs, table3_specs
from repro.search.corpus import corpus_digest

#: blake2b-128 of ``canonical(run_table3())`` at the driver's default seed,
#: as pinned by ``tests/test_scheduler_equivalence.py``.
TABLE3_PIN = "b29df45a230f797f5cbe33dd7b4e8d2f"
#: Corpus digest of the Table III rediscoveries at base seed 0, as pinned
#: by ``tests/test_search_differential.py``.
REDISCOVERY_PIN = "98739d7d2200d73e57463834d58d7cc7"


def digest(value: Any) -> str:
    return hashlib.blake2b(canonical(value), digest_size=16).hexdigest()


def default_seed(name: str) -> int:
    """The registry driver's own default seed: the workload-seed offset."""
    run = get_experiment(name).run
    return inspect.signature(run).parameters["seed"].default


@contextlib.contextmanager
def timing(module: Any, name: str, sink: list[float]):
    """Append the duration of every call to ``module.name`` to ``sink``.

    The global is swapped where its caller looks it up and restored on
    exit, so one op is timed from outside the program.
    """
    inner = getattr(module, name)

    def timed(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, inner)


@dataclass
class RoundResult:
    """One round: per-op latencies (s), failed ops and the output digest.

    Every call into the program goes through :meth:`call`, which adds its
    duration to ``wall_seconds`` (checks and digests stay outside) and,
    with a tracer attached, records it as the root span of its layers.
    """

    tracer: Any = None
    wall_seconds: float = 0.0
    op_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    parts: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    #: ``(times, counts)`` from :meth:`tracing.Tracer.summary`, traced only.
    layers: Any = None

    def call(self, fn: Callable[[], Any]) -> Any:
        start = time.perf_counter()
        try:
            return self.tracer.span(fn) if self.tracer is not None else fn()
        finally:
            self.wall_seconds += time.perf_counter() - start

    @property
    def digest(self) -> str:
        return digest(sorted(self.parts.items()))


def registry_campaigns(seed: int, trials: int) -> list[tuple[str, dict[str, Any]]]:
    """The registry campaigns of the paper's artefacts, with explicit inputs."""
    return [
        ("table1", {"labels": [p.label for p in CATALOGUE.cloud_profiles()],
                    "trials": trials, "seed": default_seed("table1") + seed}),
        ("table2", {"labels": [p.label for p in CATALOGUE.local_profiles()],
                    "trials": trials, "seed": default_seed("table2") + seed}),
        ("table3", {"scenarios": list(TABLE3_SCENARIOS),
                    "seed": default_seed("table3") + seed}),
        ("verify", {"labels": DEFAULT_LABELS, "trials": trials,
                    "seed": default_seed("verify") + seed}),
    ]


def shard_count(kwargs: dict[str, Any]) -> int:
    return len(kwargs.get("labels") or kwargs.get("scenarios"))


def run_campaign(name: str, kwargs: dict[str, Any], cache: CampaignCache,
                 ) -> tuple[list[Any], CampaignRunner]:
    """One registry driver call at ``jobs=1`` with the given cache."""
    spec = get_experiment(name)
    runner = CampaignRunner(
        jobs=1, base_seed=kwargs["seed"], campaign=name, cache=cache,
        manifest=True,
    )
    return spec.run(jobs=1, runner=runner, **kwargs), runner


def fresh_round(round_dir: Path) -> CampaignCache:
    """Point manifests at ``round_dir`` and return an empty cache there."""
    os.environ["REPRO_MANIFEST_DIR"] = str(round_dir / "manifests")
    return CampaignCache(round_dir / "cache")


class Artefacts:
    """Cold regeneration of Tables I-III, the verification and rediscovery."""

    name = "artefacts"
    trials = 3
    #: Leaves ten of the 77 distinct ops of a round beyond it.
    tail_pct = 87.0
    #: Set-ups per ``--trace 0`` run; one takes about 0.4 s.
    setup_samples = 11

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, work_dir: Path) -> None:
        self.campaigns = registry_campaigns(self.seed, self.trials)
        self.specs = table3_specs(self.seed)
        CampaignCache(work_dir / "fingerprint")  # code fingerprint, once

    def run_round(self, round_dir: Path, out: RoundResult) -> None:
        cache = fresh_round(round_dir)
        for name, kwargs in self.campaigns:
            expected = shard_count(kwargs)
            try:
                # One op is one shard function call at jobs=1; the
                # runner's cache reads, puts and manifest count toward
                # wall_s only.
                with timing(parallel_runner, "_run_shard", out.op_seconds):
                    rows, _ = out.call(
                        lambda: run_campaign(name, kwargs, cache))
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                rows = []
                out.problems.append(f"{name}: {exc!r}")
            out.attempted += expected
            # A row passes the one-shot CLI's exit-status rule on its own.
            status = get_experiment(name).status
            out.failed += expected - sum(status([row]) == 0 for row in rows)
            out.parts[name] = digest(rows)
        hits = []
        for spec in self.specs:
            expected_class = TABLE3_EXPECTED[-spec.program_index]
            start = time.perf_counter()
            try:
                outcome = out.call(lambda: plan_specs([spec]))[0]
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                outcome = {"hit": None}
                out.problems.append(f"rediscovery {spec.program_index}: {exc!r}")
            out.op_seconds.append(time.perf_counter() - start)
            out.attempted += 1
            hit = outcome["hit"]
            out.failed += not (hit and hit["violation"] == expected_class)
            if hit:
                hits.append(hit)
        out.parts["rediscovery"] = corpus_digest(hits)
        if self.seed == 0:
            if out.parts["table3"] != TABLE3_PIN:
                out.problems.append(f"table3 digest {out.parts['table3']} != pin")
            if out.parts["rediscovery"] != REDISCOVERY_PIN:
                out.problems.append(
                    f"rediscovery digest {out.parts['rediscovery']} != pin")


class Population:
    """A cold ``run_fleet`` of sampled homes; one op is one home."""

    name = "population"
    homes = 512
    #: Leaves ten of the 512 distinct homes of a round beyond it.
    tail_pct = 98.0
    #: Set-ups per ``--trace 0`` run; one takes about 0.4 s.
    setup_samples = 11

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, work_dir: Path) -> None:
        CampaignCache(work_dir / "fingerprint")  # code fingerprint, once

    def run_round(self, round_dir: Path, out: RoundResult) -> None:
        cache = fresh_round(round_dir)
        try:
            with timing(fleet_engine, "run_home", out.op_seconds):
                report = out.call(lambda: run_fleet(
                    self.homes, seed=self.seed, jobs=1, cache=cache,
                    manifest=True))
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            report = None
            out.problems.append(f"fleet: {exc!r}")
        out.attempted = self.homes
        rows = report.rows if report else ()
        out.failed = self.homes - sum(r.completed for r in rows)
        out.parts["fleet"] = digest(rows)


class Replay:
    """Warm re-runs of the cold workloads' campaigns from a filled cache."""

    name = "replay"
    trials = 1
    homes = 32
    #: Only five distinct ops: the tail is the slowest, the ``table1``
    #: re-run with its 36 cache reads.
    tail_pct = 100.0
    #: Set-ups per ``--trace 0`` run; one, with its cache fill, takes
    #: about 3.4 s.
    setup_samples = 9

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, work_dir: Path) -> None:
        """Fill a fresh cache by running every campaign once, cold."""
        self.cache = fresh_round(work_dir / "fill")
        self.campaigns = registry_campaigns(self.seed, self.trials)
        self.cold = {name: digest(op()[0]) for name, op in self.ops()}

    def ops(self) -> list[tuple[str, Callable[[], tuple[Any, bool]]]]:
        """``(name, op)``; an op returns its rows and whether every shard
        came from the cache."""
        def campaign(name: str, kwargs: dict[str, Any]) -> tuple[Any, bool]:
            rows, runner = run_campaign(name, kwargs, self.cache)
            return rows, runner.cache_hits == shard_count(kwargs)

        def fleet() -> tuple[Any, bool]:
            runner = FleetRunner(homes=self.homes, base_seed=self.seed, jobs=1,
                                 cache=self.cache, manifest=True)
            report = runner.run()
            return report.rows, runner.runner.cache_hits == len(runner.shards())

        return [(name, functools.partial(campaign, name, kwargs))
                for name, kwargs in self.campaigns] + [("fleet", fleet)]

    def run_round(self, round_dir: Path, out: RoundResult) -> None:
        os.environ["REPRO_MANIFEST_DIR"] = str(round_dir / "manifests")
        for name, op in self.ops():
            start = time.perf_counter()
            try:
                rows, all_hits = out.call(op)
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                rows, all_hits = [], False
                out.problems.append(f"{name}: {exc!r}")
            out.op_seconds.append(time.perf_counter() - start)
            out.attempted += 1
            out.parts[name] = digest(rows)
            out.failed += not (all_hits and out.parts[name] == self.cold[name])


WORKLOADS = {w.name: w for w in (Artefacts, Population, Replay)}
