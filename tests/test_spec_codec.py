"""The shared spec codec: strict decoding with complete error paths,
sparse lossless round-trips, and every committed spec document."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultKind, FaultPlan
from repro.plan import (CacheBenchSpec, ClusterSpec, LinkSpec, MatrixSpec,
                        ScenarioSpec, SiteSpec, SpecError, WorkloadSpec,
                        plan_storage)
from repro.sim.codec import schema

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


# -- malformed documents: a SpecError with the exact path -----------------------


def scenario(doc):
    return ScenarioSpec.from_dict(doc)


def sweep(axes):
    return MatrixSpec.from_dict({"sweep": axes})


def fault_plan(doc):
    return FaultPlan.from_dict(doc)


def planned_faults(doc):
    return plan_storage(ScenarioSpec(faults=doc))


def fault(**fields):
    return {"at": 1.0, "kind": "blade_crash", "target": "blade0", **fields}


MALFORMED = [
    (scenario, {"reconcile": "false"}, "scenario.reconcile",
     "expected a bool"),
    (sweep, {"reconcile": ["false"]}, "sweep.reconcile[0]",
     "expected a bool"),
    (scenario, {"workload": {"clients": "2"}}, "scenario.workload.clients",
     "expected an int"),
    (sweep, {"clients": [2.5]}, "sweep.clients[0]", "expected an int"),
    (scenario, {"seed": 7.9}, "scenario.seed", "expected an int"),
    (scenario, {"horizon_s": "abc"}, "scenario.horizon_s",
     "expected a number"),
    (sweep, {"horizon_s": ["300"]}, "sweep.horizon_s[0]",
     "expected a number"),
    (scenario, {"sites": ["a"]}, "scenario.sites[0]", "expected an object"),
    (scenario, {"sites": [{"name": "a", "position": ["x", 1]}]},
     "scenario.sites[0].position[0]", "expected a number"),
    (scenario, {"links": [{"a": "s", "b": "s"}]}, "scenario.links[0]",
     "endpoints must differ"),
    (scenario, {"faults": [1]}, "scenario.faults", "expected an object"),
    (fault_plan, {"faults": [1]}, "faults[0]", "expected an object"),
    (fault_plan, {"faults": [fault(duraton=5.0)]}, "faults[0]",
     "unknown field(s) 'duraton'"),
    (fault_plan, {"faults": [fault(at=None)]}, "faults[0].at",
     "expected a number"),
    (planned_faults, {"faults": [{"kind": "blade_crash",
                                  "target": "blade0"}]},
     "faults[0]", "missing required field 'at'"),
    (planned_faults, {"fautls": []}, "faults",
     "unknown field(s) 'fautls'; known fields: faults, seed"),
]


@pytest.mark.parametrize("load, doc, path, message", MALFORMED,
                         ids=[f"{row[2]}:{row[3]}" for row in MALFORMED])
def test_malformed_document_names_its_path(load, doc, path, message):
    with pytest.raises(SpecError) as exc:
        load(doc)
    assert exc.value.path == path
    assert message in str(exc.value)


# -- wrong JSON types anywhere in a valid document -------------------------------

JSON_VALUES = {"null": None, "bool": True, "int": 3, "float": 2.5,
               "str": "x", "list": [1], "object": {"k": 1}}


def accepted_kinds(tp) -> set[str]:
    """The JSON kinds a field of type ``tp`` decodes from."""
    if tp is bool:
        return {"bool"}
    if tp is int:
        return {"int"}
    if tp is float:
        return {"int", "float"}
    if tp is str:
        return {"str"}
    if getattr(tp, "__args__", None) and type(None) in tp.__args__:
        (inner,) = [a for a in tp.__args__ if a is not type(None)]
        return accepted_kinds(inner) | {"null"}
    if getattr(tp, "__origin__", None) is tuple:
        return {"list"}
    return {"object"}   # nested specs and mappings


#: (document location, spec type) for every object a scenario nests.
LOCATIONS = [((), ScenarioSpec), (("workload",), WorkloadSpec),
             (("cluster",), ClusterSpec), (("sites", 0), SiteSpec),
             (("links", 0), LinkSpec)]

FIELDS = [(where, name, sorted(set(JSON_VALUES) - accepted_kinds(tp)))
          for where, cls in LOCATIONS for name, tp, _ in schema(cls)]


def path_of(where, name):
    path = "scenario"
    for key in where:
        path += f"[{key}]" if isinstance(key, int) else f".{key}"
    return f"{path}.{name}"


VALID_DOC = {"name": "valid", "sites": [{"name": "a"}, {"name": "b"}],
             "links": [{"a": "a", "b": "b"}], "workload": {"clients": 1},
             "cluster": {"blade_count": 2}}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(
    lambda f: st.tuples(st.just(f), st.sampled_from(f[2]))))
def test_wrong_json_type_fails_at_that_field(case):
    (where, name, _), kind = case
    doc = json.loads(json.dumps(VALID_DOC))
    target = doc
    for key in where:
        target = target[key]
    target[name] = JSON_VALUES[kind]
    with pytest.raises(SpecError) as exc:
        ScenarioSpec.from_dict(doc)
    assert exc.value.path == path_of(where, name)


# -- lossless round-trips ---------------------------------------------------------

names = st.text(min_size=1, max_size=6)
finite = st.floats(-1e6, 1e6, allow_nan=False)
positive = st.floats(1e-3, 1e6)
fraction = st.floats(0.0, 1.0)
maybe_int = st.none() | st.integers(1, 64)

clusters = st.builds(ClusterSpec, blade_count=maybe_int, replication=maybe_int,
                     fc_rate_gb=st.none() | positive,
                     security_hardened=st.none() | st.booleans())
sites = st.builds(SiteSpec, name=names, position=st.tuples(finite, finite),
                  cluster=st.none() | clusters)
links = st.builds(LinkSpec, a=st.just("a"), b=st.just("b"),
                  bandwidth=positive, encrypted=st.booleans())
workloads = st.builds(WorkloadSpec, clients=st.integers(0, 10**7),
                      period_s=positive, path=names,
                      geo_mode=st.sampled_from(["none", "sync", "async"]),
                      kind=st.sampled_from(["closed", "fluid"]),
                      read_fraction=fraction, hit_ratio=fraction)
campaigns = st.builds(
    lambda at, kind, seed: FaultPlan(seed=seed).add(at, kind, "blade0"),
    st.floats(0.0, 1e5), st.sampled_from(list(FaultKind)),
    st.none() | st.integers(0, 2**32))
scenarios = st.builds(
    ScenarioSpec, name=names, seed=st.integers(0, 2**63),
    horizon_s=positive, cluster=clusters,
    sites=st.lists(sites, min_size=1, max_size=3).map(tuple),
    links=st.lists(links, max_size=2).map(tuple), workload=workloads,
    faults=st.none() | campaigns, reconcile=st.booleans(),
    observability=st.booleans(), scrub_passes=st.integers(0, 5),
    series_capacity=st.integers(1, 10_000), tracing=st.booleans())


@settings(max_examples=100, derandomize=True, deadline=None)
@given(scenarios)
def test_generated_scenarios_round_trip(spec):
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_encoding_emits_only_non_default_fields():
    assert ScenarioSpec().as_dict() == {}
    assert json.loads(ScenarioSpec(reconcile=True, seed=3).to_json()) == \
        {"reconcile": True, "seed": 3}
    assert SiteSpec("a").as_dict() == {"name": "a"}


# -- every committed spec document parses and round-trips -----------------------

COMMITTED = [(BENCHMARKS / "matrix_smoke.json", None)] + [
    (path, key)
    for path in sorted((BENCHMARKS / "perf" / "workloads").glob("*.json"))
    for key in ("scenario", "matrix", "cache_bench")
    if key in json.loads(path.read_text())]

SPEC_OF = {None: MatrixSpec, "matrix": MatrixSpec, "scenario": ScenarioSpec,
           "cache_bench": CacheBenchSpec}


@pytest.mark.parametrize("path, key", COMMITTED,
                         ids=[f"{p.name}:{k or 'matrix'}" for p, k in COMMITTED])
def test_committed_documents_round_trip(path, key):
    doc = json.loads(path.read_text())
    if key is not None:
        doc = doc[key]
    cls = SPEC_OF[key]
    spec = cls.from_dict(doc)
    assert cls.from_json(spec.to_json()) == spec
