"""Second gap-filling sweep: error paths, invariants, and a model-based
namespace test."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs import FilePolicy, Namespace, ReplicationMode
from repro.geo import GeoReplicator, Site, WanNetwork
from repro.sim import Simulator
from repro.sim.units import gbps, mib


class TestGeoInvariants:
    def make(self):
        sim = Simulator()
        net = WanNetwork(sim)
        a = net.add_site(Site(sim, "a", (0.0, 0.0)))
        b = net.add_site(Site(sim, "b", (0.0, 500.0)))
        c = net.add_site(Site(sim, "c", (0.0, 1500.0)))
        net.connect(a, b, bandwidth=gbps(2.5))
        net.connect(b, c, bandwidth=gbps(2.5))
        net.connect(a, c, bandwidth=gbps(1.0))
        return sim, net, a, b, c

    def test_replica_targets_never_include_failed_sites(self):
        sim, net, a, b, c = self.make()
        rep = GeoReplicator(sim, net)
        policy = FilePolicy(replication_mode=ReplicationMode.SYNC,
                            replication_sites=2)
        gf = rep.register("/f", policy, a)
        b.fail()
        targets = rep.replica_targets(gf, a)
        assert all(t.name != "b" for t in targets)
        assert [t.name for t in targets] == ["c"]

    def test_backlog_never_negative(self):
        sim, net, a, b, _c = self.make()
        rep = GeoReplicator(sim, net)
        rep.register("/f", FilePolicy(
            replication_mode=ReplicationMode.ASYNC,
            replication_sites=1), a)

        def proc():
            for _ in range(5):
                yield rep.write("/f", mib(2))
                yield sim.timeout(0.01)

        sim.process(proc())
        sim.run(until=60.0)
        assert all(v >= 0 for v in rep.async_backlog.values())
        assert rep.async_backlog[("/f", "b")] == 0

    def test_sync_to_zero_live_targets_degrades_gracefully(self):
        """All candidate replica sites down: the write still completes
        locally (there is simply nowhere to copy to)."""
        sim, net, a, b, c = self.make()
        rep = GeoReplicator(sim, net)
        rep.register("/f", FilePolicy(
            replication_mode=ReplicationMode.SYNC,
            replication_sites=1), a)
        b.fail()
        c.fail()

        def proc():
            got = yield rep.write("/f", mib(1))
            return got

        p = sim.process(proc())
        sim.run(until=p)
        assert p.value == mib(1)
        assert rep.files["/f"].copies == {"a"}


class TestMetacenterErrors:
    def test_read_unknown_file_fails(self):
        from repro.core import SystemConfig
        from repro.geo import MetadataCenter
        from repro.plan import SiteSpec
        sim = Simulator()
        center = MetadataCenter(sim, [SiteSpec("a"),
                                      SiteSpec("b", (0.0, 100.0))],
                                config=SystemConfig(
                                    blade_count=2, disk_count=8,
                                    disk_capacity=mib(32),
                                    cache_bytes_per_blade=mib(4)))
        center.connect("a", "b")
        caught = []

        def proc():
            try:
                yield center.read("/ghost", 0, mib(1), at="a")
            except KeyError:
                caught.append(True)

        sim.process(proc())
        sim.run(until=10.0)
        assert caught == [True]


# -- model-based namespace test -------------------------------------------------

_name = st.sampled_from(["a", "b", "c", "d"])
_path = st.builds(lambda parts: "/" + "/".join(parts),
                  st.lists(_name, min_size=1, max_size=3))


@settings(max_examples=60)
@given(st.lists(st.tuples(st.sampled_from(["mkdirs", "create", "unlink"]),
                          _path), max_size=40))
def test_namespace_matches_dict_model(ops):
    """The namespace agrees with a flat dict model for mkdir/create/unlink
    (where the model's preconditions hold)."""
    ns = Namespace()
    model: dict[str, str] = {}  # path -> "dir" | "file"

    def parent_ok(path):
        parts = path.strip("/").split("/")
        for i in range(1, len(parts)):
            prefix = "/" + "/".join(parts[:i])
            if model.get(prefix) != "dir":
                return False
        return True

    def has_children(path):
        return any(k != path and k.startswith(path + "/") for k in model)

    for op, path in ops:
        if op == "mkdirs":
            # Valid only if no ancestor (or the node) is a file.
            parts = path.strip("/").split("/")
            conflict = any(
                model.get("/" + "/".join(parts[:i])) == "file"
                for i in range(1, len(parts) + 1))
            if conflict:
                continue
            ns.mkdirs(path)
            for i in range(1, len(parts) + 1):
                model["/" + "/".join(parts[:i])] = "dir"
        elif op == "create":
            if path in model or not parent_ok(path):
                continue
            ns.create(path)
            model[path] = "file"
        elif op == "unlink":
            if path not in model:
                continue
            if model[path] == "dir" and has_children(path):
                continue
            ns.unlink(path)
            del model[path]
        # Invariant: every model path resolves with the right type.
        for p, kind in model.items():
            node = ns.lookup(p)
            assert node.is_dir == (kind == "dir")
        # And nothing extra exists at the model's paths' siblings.
        files = {p for p, _ in ns.walk_files()}
        assert files == {p for p, kind in model.items() if kind == "file"}
