"""Per-layer spans and counts, recorded from outside ``src/``.

:class:`Tracer` wraps the public entry points of each layer of the
simulator (listed in :data:`LAYERS`) with a span recorder, patching every
name where its caller looks it up: class attributes for methods, and the
calling module's global for module-level functions.  Nothing under
``src/`` is edited; :meth:`Tracer.install` and :meth:`Tracer.uninstall`
swap the wrappers in and out between rounds.

A span is ``(name, start, end, parent)``, kept in flat arrays so a round
of a million scheduler calls stays a few tens of megabytes.  A layer's
self time is the time of its spans minus the time of their child spans;
time inside a span that no other wrapped call covers (device and cloud
callbacks fired by the scheduler, for instance) stays with that span's
layer.  Counts are taken at the same boundaries, so ratios are measured
where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable

#: ``layer -> [(owner, attribute), ...]``.  ``owner`` is ``module:Class``
#: for a method, or the module whose global the caller reads for a
#: module-level function.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "simnet.scheduler": [
        ("repro.simnet.scheduler:Simulator", "run_until"),
        ("repro.simnet.scheduler:Simulator", "schedule"),
        ("repro.simnet.scheduler:Simulator", "at"),
        ("repro.simnet.scheduler:Simulator", "call_soon"),
    ],
    "simnet.link": [
        ("repro.simnet.link:Lan", "transmit"),
        ("repro.simnet.host:Host", "send_ip"),
    ],
    "tcp": [
        ("repro.tcp.stack:TcpStack", "send_segment"),
        ("repro.tcp.connection:TcpConnection", "on_segment"),
        ("repro.tcp.connection:TcpConnection", "send"),
    ],
    "tls": [
        ("repro.tls.record:RecordWriter", "seal"),
        ("repro.tls.record:RecordReader", "feed"),
    ],
    "appproto": [
        ("repro.appproto.codecs:MqttCodec", "encode"),
        ("repro.appproto.codecs:MqttCodec", "decode"),
        ("repro.appproto.codecs:HttpCodec", "encode"),
        ("repro.appproto.codecs:HttpCodec", "decode"),
        ("repro.appproto.base:DeviceProtocolClient", "send_event"),
        ("repro.appproto.base:ServerDeviceSession", "send_command"),
    ],
    "testbed": [
        ("repro.testbed:SmartHomeTestbed", "__init__"),
        ("repro.testbed:SmartHomeTestbed", "add_device"),
        ("repro.testbed:SmartHomeTestbed", "install_rule"),
    ],
    "automation": [
        ("repro.automation.engine:AutomationEngine", "handle_event"),
    ],
    "core": [
        ("repro.core.hijacker:TcpHijacker", "hold_events"),
        ("repro.core.hijacker:TcpHijacker", "hold_commands"),
        ("repro.core.hijacker:TcpHijacker", "release"),
        ("repro.core.arp_spoofer:ArpSpoofer", "start"),
    ],
    "faults": [
        ("repro.faults.injector:FaultInjector", "plan"),
    ],
    "search": [
        ("repro.search.planner", "run_program"),
        ("repro.search.planner", "classify"),
        ("repro.search.planner", "shrink"),
    ],
    "fleet": [
        ("repro.fleet.sampler:FleetSampler", "sample"),
        ("repro.fleet.engine", "run_home"),
    ],
    "parallel": [
        ("repro.parallel.runner:CampaignRunner", "run"),
    ],
    "cache": [
        ("repro.cache.store:CampaignCache", "get"),
        ("repro.cache.store:CampaignCache", "put"),
        ("repro.cache.store:CampaignCache", "key_for"),
    ],
    "obs": [
        ("repro.obs.manifest:RunManifest", "build"),
        ("repro.obs.manifest:RunManifest", "write"),
        ("repro.obs.manifest", "git_describe"),
        ("repro.obs.telemetry", "merge_telemetry"),
    ],
}

#: The benchmark's own span around each of its calls into the program;
#: every layer span nests in one.
ROOT = "benchmark.call"

#: Per-layer metrics: ``(metric name, unit)`` in report order.
METRICS: list[tuple[str, str]] = [
    ("simnet.scheduler.self_ms", "ms"),
    ("simnet.scheduler.timers", "count"),
    ("simnet.scheduler.events", "count"),
    ("simnet.link.self_ms", "ms"),
    ("simnet.link.frames", "count"),
    ("simnet.link.arp_share", "ratio"),
    ("tcp.self_ms", "ms"),
    ("tcp.segments_out", "count"),
    ("tcp.segments_in", "count"),
    ("tls.self_ms", "ms"),
    ("tls.records", "count"),
    ("tls.memo_hit_ratio", "ratio"),
    ("appproto.self_ms", "ms"),
    ("appproto.messages", "count"),
    ("testbed.build_ms", "ms"),
    ("testbed.builds", "count"),
    ("automation.self_ms", "ms"),
    ("automation.events", "count"),
    ("core.self_ms", "ms"),
    ("core.holds", "count"),
    ("faults.self_ms", "ms"),
    ("faults.frames", "count"),
    ("search.self_ms", "ms"),
    ("search.runs", "count"),
    ("search.hit_ratio", "ratio"),
    ("fleet.sample_ms", "ms"),
    ("fleet.homes", "count"),
    ("parallel.self_ms", "ms"),
    ("parallel.shards", "count"),
    ("cache.get_ms", "ms"),
    ("cache.put_ms", "ms"),
    ("cache.gets", "count"),
    ("cache.puts", "count"),
    ("cache.hit_ratio", "ratio"),
    ("obs.manifest_ms", "ms"),
    ("obs.git_describe_ms", "ms"),
    ("obs.manifests", "count"),
    ("unattributed_ms", "ms"),
]


def _resolve(owner: str) -> Any:
    module_name, _, cls_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls_name) if cls_name else module


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.layer_of: list[str] = [ROOT]
        self.targets: list[tuple[Any, str, Any]] = []
        for layer, entries in LAYERS.items():
            for owner, attr in entries:
                target = _resolve(owner)
                module_name, _, cls_name = owner.partition(":")
                label = f"{cls_name or module_name.rpartition('.')[2]}.{attr}"
                self.names.append(label)
                self.layer_of.append(layer)
                self.targets.append((target, attr, vars(target).get(attr)))
        self._patched: list[tuple[Any, str, Any]] = []
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = [-1]
        self.reset()

    # ---------------------------------------------------------- recording

    def reset(self) -> None:
        """Drop every span and count (one call per traced round)."""
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]
        self.stack[:] = [-1]
        self.events = 0
        self.arp_frames = 0
        self.records_opened = 0
        self.cache_hits = 0
        self.shards = 0
        self.candidates_hit = 0
        from repro.tls.record import memo_stats

        self._memo_base = memo_stats()

    def _wrap(self, name_id: int, fn: Callable[..., Any],
              after: Callable[[Any, tuple, Any], None] | None = None,
              before: Callable[[tuple], Any] | None = None) -> Callable[..., Any]:
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            token = before(args) if before is not None else None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(token, args, result)
            return result

        return wrapper

    def span(self, fn: Callable[..., Any]) -> Any:
        """Run ``fn()`` inside one root span."""
        return self._wrap(0, fn)()

    # ------------------------------------------------------------ patches

    def _hooks(self) -> dict[str, Any]:
        """``label -> (after, before)`` for the calls that count more than
        their own calls."""
        from repro.simnet.packet import ArpPacket

        def events_before(args: tuple) -> int:
            return args[0].events_processed

        def events_after(before: int, args: tuple, _result: Any) -> None:
            self.events += args[0].events_processed - before

        def transmit(_token: None, args: tuple, _result: Any) -> None:
            if isinstance(args[1].payload, ArpPacket):
                self.arp_frames += 1

        def feed(_token: None, _args: tuple, result: Any) -> None:
            self.records_opened += len(result)

        def get(_token: None, _args: tuple, result: Any) -> None:
            self.cache_hits += bool(result.hit)

        def run(_token: None, args: tuple, _result: Any) -> None:
            self.shards += len(args[1])

        def classify(_token: None, _args: tuple, result: Any) -> None:
            self.candidates_hit += bool(result)

        return {
            "Simulator.run_until": (events_after, events_before),
            "Lan.transmit": (transmit, None),
            "RecordReader.feed": (feed, None),
            "CampaignCache.get": (get, None),
            "CampaignRunner.run": (run, None),
            "planner.classify": (classify, None),
        }

    def install(self) -> None:
        """Patch every wrapped name; call before the round builds anything."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        for name_id, (target, attr, original) in enumerate(self.targets, 1):
            after, before = hooks.get(self.names[name_id], (None, None))
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(
                    self._wrap(name_id, original.__func__, after, before))
            else:
                wrapped = self._wrap(name_id, getattr(target, attr), after, before)
            self._patched.append((target, attr, original))
            setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched name exactly as it was."""
        for target, attr, original in reversed(self._patched):
            if original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self._patched = []

    # ------------------------------------------------------------ results

    def self_ms_by_name(self) -> list[float]:
        """Self time per name id, in milliseconds."""
        total = [0.0] * len(self.names)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        for i in range(len(starts)):
            duration = ends[i] - starts[i]
            total[names[i]] += duration
            parent = parents[i]
            if parent >= 0:
                total[names[parent]] -= duration
        return [t * 1000.0 for t in total]

    def counts_by_name(self) -> list[int]:
        counts = [0] * len(self.names)
        for name_id in self.name:
            counts[name_id] += 1
        return counts

    def summary(self) -> tuple[dict[str, float], dict[str, float]]:
        """``(times, counts)`` of the round just traced, keyed by metric."""
        from repro.tls.record import memo_stats

        self_ms = self.self_ms_by_name()
        calls = self.counts_by_name()
        by_layer: dict[str, float] = {}
        for name_id, layer in enumerate(self.layer_of):
            by_layer[layer] = by_layer.get(layer, 0.0) + self_ms[name_id]

        def ms(*labels: str) -> float:
            return sum(self_ms[self.names.index(label)] for label in labels)

        def n(*labels: str) -> int:
            return sum(calls[self.names.index(label)] for label in labels)

        memo = memo_stats()
        memo_hits = sum(memo[k] - self._memo_base[k]
                        for k in ("keystream_hits", "mac_hits"))
        memo_all = memo_hits + sum(memo[k] - self._memo_base[k]
                                   for k in ("keystream_misses", "mac_misses"))
        frames = n("Lan.transmit")
        gets = n("CampaignCache.get")
        times = {
            "simnet.scheduler.self_ms": by_layer["simnet.scheduler"],
            "simnet.link.self_ms": by_layer["simnet.link"],
            "tcp.self_ms": by_layer["tcp"],
            "tls.self_ms": by_layer["tls"],
            "appproto.self_ms": by_layer["appproto"],
            "testbed.build_ms": by_layer["testbed"],
            "automation.self_ms": by_layer["automation"],
            "core.self_ms": by_layer["core"],
            "faults.self_ms": by_layer["faults"],
            "search.self_ms": by_layer["search"],
            "fleet.sample_ms": ms("FleetSampler.sample"),
            "parallel.self_ms": by_layer["parallel"],
            "cache.get_ms": ms("CampaignCache.get"),
            "cache.put_ms": ms("CampaignCache.put"),
            "obs.manifest_ms": ms("RunManifest.build", "RunManifest.write"),
            "obs.git_describe_ms": ms("manifest.git_describe"),
            "unattributed_ms": by_layer[ROOT],
        }
        counts = {
            "simnet.scheduler.timers": n("Simulator.at"),
            "simnet.scheduler.events": self.events,
            "simnet.link.frames": frames,
            "simnet.link.arp_share": _ratio(self.arp_frames, frames),
            "tcp.segments_out": n("TcpStack.send_segment"),
            "tcp.segments_in": n("TcpConnection.on_segment"),
            "tls.records": n("RecordWriter.seal") + self.records_opened,
            "tls.memo_hit_ratio": _ratio(memo_hits, memo_all),
            "appproto.messages": n("MqttCodec.encode", "MqttCodec.decode",
                                   "HttpCodec.encode", "HttpCodec.decode"),
            "testbed.builds": n("SmartHomeTestbed.__init__"),
            "automation.events": n("AutomationEngine.handle_event"),
            "core.holds": n("TcpHijacker.hold_events", "TcpHijacker.hold_commands"),
            "faults.frames": n("FaultInjector.plan"),
            "search.runs": n("planner.run_program"),
            "search.hit_ratio": _ratio(self.candidates_hit, n("planner.classify")),
            "fleet.homes": n("engine.run_home"),
            "parallel.shards": self.shards,
            "cache.gets": gets,
            "cache.puts": n("CampaignCache.put"),
            "cache.hit_ratio": _ratio(self.cache_hits, gets),
            "obs.manifests": n("RunManifest.write"),
        }
        return times, counts

    def write(self, path: Path) -> Path:
        """Write the spans of the last traced round: JSON header + arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "layers": self.layer_of,
            "spans": len(self.start),
            "arrays": [("name", "H"), ("parent", "l"), ("start", "d"), ("end", "d")],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)
        return path
