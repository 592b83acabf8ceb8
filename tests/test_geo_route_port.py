"""WanNetwork routing against networkx, the library it replaced.

``WanNetwork.route`` ports networkx's bidirectional Dijkstra so that
equal-latency routes resolve exactly as they did when networkx routed.
Every network here is built while a recorder mirrors each ``add_site`` /
``connect`` into an ``nx.Graph`` the way the networkx-backed network did;
``nx.shortest_path`` over a filtered view of that graph is the reference.
Covered: every committed plan with more than one site (the matrix smoke,
the perf workloads, the geo benches), hand-built tie cases and seeded
tie-heavy random graphs, each under no fault, every single failed site
and every single down link, for every ordered site pair including
``src == dst``.
"""

import importlib.util
import itertools
import json
import random
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.geo import NoRouteError, Site, WanNetwork
from repro.plan import MatrixSpec, ScenarioSpec, plan_storage
from repro.sim import Simulator
from repro.sim.units import gbps

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def recorded(monkeypatch):
    """Mirror every network built under the fixture into an nx.Graph.

    Returns ``{network: graph}``; the graph gets the nodes and edges, in
    the same order and with the same ``link``/``weight`` attributes, that
    the networkx-backed ``WanNetwork`` stored."""
    graphs: dict = {}
    add_site, connect = WanNetwork.add_site, WanNetwork.connect

    def recording_add_site(self, site):
        out = add_site(self, site)
        graphs.setdefault(self, nx.Graph()).add_node(site.name)
        return out

    def recording_connect(self, a, b, *args, **kwargs):
        link = connect(self, a, b, *args, **kwargs)
        graphs[self].add_edge(a.name, b.name, link=link, weight=link.latency)
        return link

    monkeypatch.setattr(WanNetwork, "add_site", recording_add_site)
    monkeypatch.setattr(WanNetwork, "connect", recording_connect)
    return graphs


def reference_route(graph, net, src, dst):
    """The networkx routing rule: filtered view + weighted shortest path."""
    if src.failed or dst.failed:
        raise NoRouteError("endpoint down")
    endpoints = (src.name, dst.name)
    usable = nx.subgraph_view(
        graph,
        filter_node=lambda n: not net.sites[n].failed or n in endpoints,
        filter_edge=lambda u, v: not graph.edges[u, v]["link"].failed)
    try:
        names = nx.shortest_path(usable, src.name, dst.name, weight="weight")
    except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
        raise NoRouteError("no path") from exc
    return [graph.edges[u, v]["link"] for u, v in zip(names, names[1:])]


def outcome(route, src, dst):
    try:
        return [id(link) for link in route(src, dst)]
    except NoRouteError:
        return "no route"


def compare(net, graph) -> int:
    """Assert route() == the reference for every pair under no fault,
    each single failed site and each single down link; return the
    number of routes compared."""
    assert [(u, v) for u, v, _ in net.links()] == sorted(graph.edges)
    assert all(link is graph.edges[u, v]["link"]
               for u, v, link in net.links())
    sites = list(net.sites.values())
    faults = [None] + sites + [link for _u, _v, link in net.links()]
    checked = 0
    for broken in faults:
        if broken is not None:
            broken.fail()
        try:
            for src, dst in itertools.product(sites, repeat=2):
                want = outcome(lambda s, d: reference_route(graph, net, s, d),
                               src, dst)
                got = outcome(net.route, src, dst)
                assert got == want, (src.name, dst.name, broken)
                checked += 1
        finally:
            if broken is not None:
                broken.repair()
    return checked


def compare_all(graphs) -> None:
    assert graphs
    for net, graph in graphs.items():
        assert compare(net, graph) > 0


def scenario_specs():
    specs = []
    matrix = json.loads((BENCH_DIR / "matrix_smoke.json").read_text())
    specs += MatrixSpec.from_dict(matrix).expand()
    for path in sorted((BENCH_DIR / "perf" / "workloads").glob("*.json")):
        doc = json.loads(path.read_text())
        if "matrix" in doc:
            specs += MatrixSpec.from_dict(doc["matrix"]).expand()
        if "scenario" in doc:
            specs.append(ScenarioSpec.from_dict(doc["scenario"]))
    return specs


def load_bench(name):
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location(name,
                                                  BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCommittedPlans:
    def test_matrix_and_perf_workload_plans(self, recorded):
        topologies = set()
        for spec in scenario_specs():
            plan = plan_storage(spec)
            key = (tuple((s.name, s.position) for s in plan.sites),
                   tuple((lk.a, lk.b, lk.bandwidth, lk.encrypted)
                         for lk in plan.links))
            if len(plan.sites) > 1 and key not in topologies:
                topologies.add(key)
                plan.build(Simulator())
        assert len(topologies) >= 3
        compare_all(recorded)

    def test_geo_bench_topologies(self, recorded):
        e10 = load_bench("bench_e10_geo_replication")
        for km in e10.DISTANCES_KM:
            e10.pair(Simulator(), km)
        load_bench("bench_e13_three_site_dr").build()
        load_bench("bench_e16_replica_selection").build_network(Simulator())
        e17 = load_bench("bench_e17_partition")
        e17.build_ring(Simulator())
        plan_storage(ScenarioSpec.from_dict(
            e17._scenario_doc("e17/cut", 17))).build(Simulator())
        compare_all(recorded)


def build(sites, edges):
    """``sites``: name -> position; ``edges``: (a, b, km) in connect order."""
    sim = Simulator()
    net = WanNetwork(sim)
    for name, pos in sites.items():
        net.add_site(Site(sim, name, pos))
    for a, b, km in edges:
        net.connect(net.sites[a], net.sites[b], bandwidth=gbps(1.0),
                    distance_km=km)
    return net


class TestTies:
    def test_equal_latency_ring_in_every_connect_order(self, recorded):
        ring = [("a", "b", 500.0), ("b", "c", 500.0), ("c", "d", 500.0),
                ("d", "a", 500.0)]
        sites = {name: (0.0, 0.0) for name in "abcd"}
        for order in itertools.permutations(ring):
            build(sites, order)
        compare_all(recorded)

    def test_two_equal_detours(self, recorded):
        sites = {name: (0.0, 0.0) for name in "abcd"}
        net = build(sites, [("a", "b", 100.0), ("a", "c", 300.0),
                            ("c", "b", 300.0), ("a", "d", 300.0),
                            ("d", "b", 300.0)])
        compare_all(recorded)
        a, b = net.sites["a"], net.sites["b"]
        net.link("a", "b").fail()
        assert len(net.route(a, b)) == 2

    def test_seeded_tie_heavy_graphs(self, recorded):
        for seed in range(30):
            rng = random.Random(seed)
            names = [f"s{i}" for i in range(6)]
            rng.shuffle(names)
            pairs = [p for p in itertools.combinations(names, 2)
                     if rng.random() < 0.5]
            rng.shuffle(pairs)
            build({n: (0.0, 0.0) for n in names},
                  [(a, b, rng.choice((100.0, 200.0, 300.0)))
                   for a, b in pairs])
        compare_all(recorded)


class TestEndpoints:
    def test_same_site_and_unknown_site(self):
        net = build({"a": (0.0, 0.0), "b": (0.0, 100.0)}, [("a", "b", 100.0)])
        a = net.sites["a"]
        assert net.route(a, a) == []
        stranger = Site(net.sim, "z", (0.0, 0.0))
        with pytest.raises(NoRouteError):
            net.route(a, stranger)
        with pytest.raises(NoRouteError):
            net.route(stranger, a)
