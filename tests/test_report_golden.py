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

The geo plane pins a known defect as it stands: every site registers
``cluster``, ``raid.pool``, ``cache.pool`` and ``blade0..3`` unprefixed,
so the last site's probes replace the others', and ``a.integrity``
appears twice (the manager and its recovery tracker).
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
        "fingerprint": "9134676f445c653734c21eafcc3fad09"
                       "c58724194c6c0dfb574e51fadb181995",
        "mgmt_json": "3bc4b4e8c5f15ca9c4ea99776e5cda0d"
                     "d01175451868cf078045ef6ae74c4a7a",
        "mgmt_prometheus": "7c9e176c088d3cc8f360664644e85288"
                           "6d0d8392efcac0cf95e6bd6393889416",
    },
    "geo": {
        "kind": "geo",
        "fingerprint": "68482a769cae0ceef54aabbda5d5c528"
                       "7a28d744851cc2dadc226ea28698cc79",
        "mgmt_json": "a5b96339302dcc9f56c09678eb8e25d4"
                     "5a255aa63e7cc73a9e4d65a8eb990c31",
        "mgmt_prometheus": "ca1a05accb58f1f58525f1b988271553"
                           "cd382e3adf011cd06d8a6730522b4ef7",
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


@pytest.mark.parametrize("export", ["mgmt_json", "mgmt_prometheus"])
def test_mgmt_export_golden(run, export):
    variant, _built, _result, exports = run
    assert _sha(exports[export]) == GOLDEN[variant][export]
