"""Small shared helpers for the experiment drivers."""

from __future__ import annotations

from typing import Any, Callable, TYPE_CHECKING

from ..devices.base import HubChildDevice, IoTDevice
from ..parallel import CampaignRunner, Shard

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator

#: One sharded sub-experiment: its shards, and the function that folds
#: their results (in shard order) into the sub-experiment's rows.
Plan = tuple[list[Shard], Callable[[list[Any]], Any]]


def run_until(sim: "Simulator", predicate: Callable[[], bool], timeout: float) -> bool:
    """Advance the simulation until ``predicate`` holds or ``timeout`` passes.

    The predicate is re-evaluated per simulated *instant*, not per event:
    each pass batch-steps to the next event's timestamp (which fires every
    event scheduled at that instant in one fused scheduler loop) and only
    then re-checks.  Predicates are functions of simulation state that
    changes when events fire, so checking between two events of the same
    instant buys nothing — it was the dominant Python-level overhead of the
    profiling campaigns.
    """
    deadline = sim.now + timeout
    while not predicate():
        nxt = sim.peek()
        if nxt is None or nxt > deadline:
            sim.run_until(deadline)
            return predicate()
        sim.run_until(nxt)
    return True


def uplink_ip_of(device: IoTDevice) -> str:
    """The LAN address whose TCP session carries this device's messages."""
    if isinstance(device, HubChildDevice):
        return device.hub.ip
    return device.host.ip  # type: ignore[attr-defined]


def run_plans(runner: CampaignRunner, *plans: Plan) -> list[Any]:
    """Run several sharded sub-experiments as one campaign.

    One ``runner.run()`` over the union of the plans' shards gives one
    cache lookup pass, one cancel signal and one manifest; each plan's
    slice of the results goes to its own fold, in plan order.
    """
    results = iter(runner.run([shard for shards, _ in plans for shard in shards]))
    return [fold([next(results) for _ in shards]) for shards, fold in plans]


def run_plan(campaign: str, seed: int, plan: Plan) -> Any:
    """One plan as its own serial campaign, with the default manifest."""
    [rows] = run_plans(CampaignRunner(jobs=1, base_seed=seed, campaign=campaign), plan)
    return rows
