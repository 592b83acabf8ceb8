"""Charge the host time of a cProfile pass to the ``repro.<package>`` layers.

Every frame's own time (``tottime``) goes to the layer its source file
lives in.  C functions have no source file, so their time goes to the
layers of the Python frames that called them, split by the per-caller
time pstats records.  The stdlib and third-party packages are ``ext``,
and this benchmark's own frames (the open-loop request glue) are
``harness``.  What is left -- C calls with no recorded caller, or a
package missing from :data:`LAYERS` -- is unattributed.
"""

from __future__ import annotations

import os

#: Every package under ``src/repro`` and the layer its host time is
#: charged to.  The harness refuses to run if a package is missing here.
LAYERS = {
    "baseline": "misc",
    "cache": "cache",
    "cluster": "cluster",
    "core": "core",
    "faults": "faults",
    "fs": "fs",
    "geo": "geo",
    "hardware": "hardware",
    "integrity": "integrity",
    "obs": "obs",
    "plan": "plan",
    "protocols": "misc",
    "raid": "raid",
    "security": "misc",
    "sim": "sim",
    "virt": "virt",
    "workloads": "workloads",
}

#: Every layer a self-time share is reported for.
SELF_LAYERS = tuple(sorted(set(LAYERS.values()) | {"ext", "harness"}))

#: Exact call counts at public entry points: metric -> (file under
#: ``src/repro``, function name) pairs whose ``ncalls`` are summed.  A
#: generator function counts once per resumption, which is what
#: ``geo.pump_resumes`` wants.
CALL_COUNTS = {
    "sim.timeouts": (("sim/engine.py", "timeout"),),
    "sim.process_starts": (("sim/engine.py", "process"),),
    "link.transfers": (("sim/link.py", "transfer"),),
    "cache.reads": (("cache/pool.py", "read"),),
    "cache.writes": (("cache/pool.py", "write"),),
    "raid.ios": (("raid/decluster.py", "read"), ("raid/decluster.py", "write"),
                 ("raid/array.py", "read"), ("raid/array.py", "write")),
    "balancer.picks": (("cluster/balancer.py", "pick"),),
    "geo.writes": (("geo/replication.py", "write"),),
    "geo.pump_resumes": (("geo/replication.py", "_pump"),),
    "geo.route_lookups": (("geo/wan.py", "route"),),
    "obs.series_records": (("obs/timeseries.py", "record"),
                           ("obs/timeseries.py", "incr")),
    "obs.slo_evals": (("obs/slo.py", "evaluate"),),
}


def missing_layers(src_dir: str) -> list[str]:
    """Packages under ``src_dir/repro`` that have no entry in LAYERS."""
    root = os.path.join(src_dir, "repro")
    packages = {name for name in os.listdir(root)
                if os.path.isfile(os.path.join(root, name, "__init__.py"))}
    return sorted(packages - set(LAYERS))


class Attribution:
    """Layer of each profiled source file, given where the package lives."""

    def __init__(self, src_dir: str, harness_dir: str) -> None:
        self.repro_prefix = os.path.join(os.path.realpath(src_dir), "repro", "")
        self.harness_prefix = os.path.join(os.path.realpath(harness_dir), "")

    def _relative(self, filename: str) -> str | None:
        path = os.path.realpath(filename)
        if not path.startswith(self.repro_prefix):
            return None
        return path[len(self.repro_prefix):].replace(os.sep, "/")

    def layer_of(self, filename: str) -> str | None:
        """The layer of a Python frame's file; None when unmapped."""
        rel = self._relative(filename)
        if rel is None:
            if os.path.realpath(filename).startswith(self.harness_prefix):
                return "harness"
            return "ext"
        package = rel.split("/", 1)[0]
        if package.endswith(".py"):  # repro/__init__.py: the facade
            return "core"
        return LAYERS.get(package)

    def self_times(self, stats: dict) -> tuple[dict[str, float], float, float]:
        """``(self seconds per layer, unattributed seconds, total seconds)``
        from a ``pstats.Stats(...).stats`` mapping."""
        layer_of = {}

        def cached(filename):
            if filename not in layer_of:
                layer_of[filename] = self.layer_of(filename)
            return layer_of[filename]

        out = dict.fromkeys(SELF_LAYERS, 0.0)
        unattributed = total = 0.0
        for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) \
                in stats.items():
            total += tt
            if filename != "~":
                layer = cached(filename)
                if layer is None:
                    unattributed += tt
                else:
                    out[layer] += tt
                continue
            charged = 0.0
            for (caller_file, _l, _n), edge in callers.items():
                # A C function called from another C function has no
                # source file to follow: that time stays with ``ext``.
                layer = "ext" if caller_file == "~" else cached(caller_file)
                if layer is None:
                    unattributed += edge[2]
                else:
                    out[layer] += edge[2]
                charged += edge[2]
            unattributed += max(0.0, tt - charged)
        return out, unattributed, total

    def call_counts(self, stats: dict) -> dict[str, int]:
        """The CALL_COUNTS metrics from a ``pstats`` mapping."""
        calls: dict[tuple[str, str], int] = {}
        for (filename, _line, name), (_cc, nc, *_rest) in stats.items():
            rel = self._relative(filename) if filename != "~" else None
            if rel is not None:
                calls[rel, name] = calls.get((rel, name), 0) + nc
        return {metric: sum(calls.get(key, 0) for key in keys)
                for metric, keys in CALL_COUNTS.items()}
