"""Golden digests of the multi-site reports.

The ``partition-smoke`` scenario (see ``tests/test_faults_partition.py``)
with post-heal reconciliation, observability and cost-based replica
selection on, run in two shapes:

* ``wan`` — aggregate-storage sites (the cheap geo model), 30 s;
* ``geo`` — full NetStorage systems per site with integrity on, 15 s.

Both runs reach a reconcile sweep, resynced bytes, WAN replication bytes
and (geo) the repair-chain probe, so the digests pin every counter those
reports render: the scenario fingerprint (its metrics dict, with exact
JSON types) and the management plane's JSON and Prometheus exports.  A
refactor of where those counts live must leave all three byte-identical.

All three digests also hash the kernel's event count: the fingerprint
carries ``events`` and both exports carry the ``sim.kernel`` probe's
``events_processed``.  A change that schedules fewer kernel events for
the same outcome re-pins them; the scenario's other fields must not
move.

In the geo plane every site registers its ``cluster``, ``raid.pool``,
``cache.pool`` and ``blade0..3`` probes as ``<site>.<part>``, so all three
sites show, and each site's integrity manager and repair chain appear
once each (the chain's probe carries its recovery tracker's outage
record).  Both shapes register the replicator (``geo.replication``) and
the lease authority (``geo.lease``), and every fault-target tracker
reports under its ``<target>.recovery`` key.

A third, single-site run pins the labeled series registry itself: the
sha256 of ``SeriesRegistry.to_json()`` and ``to_prometheus()`` after a
closed workload through a blade crash and a slow node.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.plan import ScenarioSpec, plan_storage
from repro.sim import Simulator
from repro.sim.units import mib

GOLDEN = {
    "wan": {
        "kind": "wan",
        "fingerprint": "24be61fa962179620e1bf086f0b5d1ea"
                       "d938fb620873d7d6ab1c55b8303a23d5",
        "mgmt_json": "5fb8ca65dbbf5334a39c0b1590c3ba9f"
                     "57a80ae930961e66e3d599f43562c375",
        "mgmt_prometheus": "4b7b0957c50e563dbc70708396bf35ed"
                           "71ae43cad68fbb7fcdff938661f23a6c",
    },
    "geo": {
        "kind": "geo",
        "fingerprint": "cd22b9bbd8ced72be9608ac8b487ec16"
                       "7e45432fc9bdd0dabb33e6a63c5b2eea",
        "mgmt_json": "16d2a374827b12a3e5cc2cf38083b471"
                     "237ccfbcedcc25f4a26f29268b324c3a",
        "mgmt_prometheus": "7cd42d97b77672321327b7c55ebb7a5f"
                           "20f28ea985836709bf23ecb3bbaae642",
    },
}


def _doc(variant: str) -> dict:
    doc = {
        "name": "partition-smoke", "seed": 11, "horizon_s": 30.0,
        "site_backing": "aggregate",
        "sites": [{"name": "a", "position": [0.0, 0.0]},
                  {"name": "b", "position": [0.0, 400.0]},
                  {"name": "c", "position": [3000.0, 1500.0]}],
        "workload": {"clients": 3, "op_bytes": int(mib(1)),
                     "period_s": 0.5, "geo_mode": "sync",
                     "geo_sites": 2},
        "faults": {"faults": [
            {"at": 5.0, "kind": "partition", "target": "a|b,c",
             "duration": 6.0}]},
        "reconcile": True, "observability": True, "selection": "cost",
    }
    if variant == "geo":
        del doc["site_backing"]
        doc["horizon_s"] = 15.0
        doc["integrity"] = True
    return doc


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def run(request):
    sim = Simulator()
    plan = plan_storage(ScenarioSpec.from_dict(_doc(request.param)))
    with plan.build(sim) as built:
        result = built.run()
    # Export before anything else polls the plane.
    exports = {"mgmt_json": built.obs.mgmt.to_json(),
               "mgmt_prometheus": built.obs.mgmt.to_prometheus()}
    return request.param, built, result, exports


def test_run_reaches_every_pinned_counter(run):
    variant, built, result, _exports = run
    assert built.kind == GOLDEN[variant]["kind"]
    m = result.metrics
    # The wan kind casts reconcile counts to float; the geo kind keeps
    # the daemon's ints.  Both shapes are part of the fingerprint.
    sweeps_type = float if variant == "wan" else int
    assert type(m["reconcile.sweeps"]) is sweeps_type
    assert m["reconcile.sweeps"] == 1
    assert type(m["reconcile.conflicts"]) is sweeps_type
    assert type(m["reconcile.resynced_bytes"]) is float
    assert m["reconcile.resynced_bytes"] > 0
    assert type(m["wan.replication_bytes"]) is float
    assert m["wan.replication_bytes"] > 0
    names = set(built.obs.mgmt.poll())
    assert "geo.reconcile" in names
    if variant == "geo":
        assert "a.integrity.repair" in names


def test_fingerprint_golden(run):
    variant, _built, result, _exports = run
    assert result.fingerprint == GOLDEN[variant]["fingerprint"]


def test_plane_names_geo_health_and_keys_match_components(run):
    _variant, built, _result, _exports = run
    snap = built.obs.mgmt.poll()
    assert {"geo.replication", "geo.lease"} <= set(snap)
    assert all(health.component == key for key, health in snap.items())


@pytest.mark.parametrize("export", ["mgmt_json", "mgmt_prometheus"])
def test_mgmt_export_golden(run, export):
    variant, _built, _result, exports = run
    assert _sha(exports[export]) == GOLDEN[variant][export]


# -- single-site labeled series ------------------------------------------------

#: A one-site closed workload with observability and integrity on, through
#: one blade crash and one slow node: every single-site series emitter
#: (client, cache per blade and tier, blade state, cluster, destage,
#: interconnect) records into the registry.
SERIES_DOC = {
    "name": "series-smoke", "seed": 5, "horizon_s": 60.0,
    "cluster": {"blade_count": 4, "disk_count": 8,
                "disk_capacity": int(mib(64))},
    "observability": True, "integrity": True,
    "workload": {"clients": 4, "op_bytes": int(mib(1)), "period_s": 2.0},
    "faults": {"faults": [
        {"at": 10.0, "kind": "blade_crash", "target": "blade1",
         "duration": 15.0},
        {"at": 30.0, "kind": "slow_node", "target": "blade2",
         "duration": 15.0, "severity": 4.0}]},
}

SERIES_GOLDEN = {
    "to_json": "5ddfb74dcde7364b1446375ef7f47188"
               "7a206b06f37072127623361c1c72484c",
    "to_prometheus": "e2004b548ecbf0d89b254bc7fdd43d2b"
                     "291575ebe2c0456e0961fd51bb95612e",
}


@pytest.fixture(scope="module")
def series_registry():
    sim = Simulator()
    plan = plan_storage(ScenarioSpec.from_dict(SERIES_DOC))
    with plan.build(sim) as built:
        built.run()
    return built.obs.series


def test_single_site_series_cover_every_emitter(series_registry):
    names = {s.name for s in series_registry.all_series()}
    tiers = {dict(s.labels)["tier"]
             for s in series_registry.match("cache.read_latency_s")}
    assert len(tiers) >= 2
    assert {"cache.write_latency_s", "blade.up", "blade.slow_factor",
            "cluster.blades_down"} <= names
    assert any(name.startswith("client.") for name in names)


@pytest.mark.parametrize("export", sorted(SERIES_GOLDEN))
def test_single_site_series_golden(series_registry, export):
    text = getattr(series_registry, export)()
    assert _sha(text) == SERIES_GOLDEN[export]
