"""plan_storage: validation paths, layout arithmetic, plan round-trips."""

import json

import pytest

from repro.plan import (ClusterSpec, LinkSpec, Plan, ScenarioSpec, SiteSpec,
                        SpecError, plan_cache_bench, plan_storage)
from repro.plan.spec import CacheBenchSpec
from repro.sim.units import mib

SMALL = ClusterSpec(blade_count=2, disk_count=8, disk_capacity=mib(64))


def small_spec(**kw):
    kw.setdefault("cluster", SMALL)
    return ScenarioSpec(**kw)


# -- validation errors name the offending axis ---------------------------------


def err_path(spec):
    with pytest.raises(SpecError) as exc:
        plan_storage(spec)
    return exc.value.path


def test_scenario_level_validation_paths():
    assert err_path(small_spec(name="")) == "name"
    assert err_path(small_spec(horizon_s=0)) == "horizon_s"
    assert err_path(small_spec(site_backing="raid")) == "site_backing"
    assert err_path(small_spec(sites=())) == "sites"
    assert err_path(small_spec(
        sites=(SiteSpec("a"), SiteSpec("a")))) == "sites"
    assert err_path(small_spec(scrub_passes=-1)) == "scrub_passes"
    assert err_path(small_spec(scrub_passes=1)) == "scrub_passes"  # no integrity
    assert err_path(small_spec(
        sites=(SiteSpec("a"), SiteSpec("b")), site_backing="aggregate",
        integrity=True)) == "integrity"
    assert err_path(small_spec(site_backing="aggregate")) == "site_backing"


def test_every_system_config_error_surfaces_with_spec_path():
    """Each SystemConfig.__post_init__ ValueError comes back as a
    SpecError whose path names the site and, when the message leads with
    a field name, the field itself."""
    cases = [
        (ClusterSpec(blade_count=0), "blade_count"),
        (ClusterSpec(replication=0), "replication"),
        (ClusterSpec(blade_count=2, replication=3), "replication"),
        (ClusterSpec(disk_count=3), "disk_count"),
        (ClusterSpec(block_size=0), "block_size"),
        (ClusterSpec(scrub_rate=0.0), "scrub_rate"),
    ]
    for bad, fieldname in cases:
        with pytest.raises(SpecError) as exc:
            plan_storage(ScenarioSpec(cluster=bad))
        assert exc.value.path == f"sites[0].{fieldname}", fieldname


def test_per_site_config_error_names_the_site_index():
    spec = ScenarioSpec(
        cluster=SMALL,
        sites=(SiteSpec("a"),
               SiteSpec("b", (0.0, 100.0), ClusterSpec(replication=5))))
    with pytest.raises(SpecError) as exc:
        plan_storage(spec)
    assert exc.value.path == "sites[1].replication"


def test_link_validation_paths():
    two = (SiteSpec("a"), SiteSpec("b", (0.0, 100.0)))
    assert err_path(small_spec(
        sites=two, links=(LinkSpec("a", "nowhere"),))) == "links[0].b"
    assert err_path(small_spec(
        links=(LinkSpec("site0", "ghost"),))) == "links[0].b"
    assert err_path(small_spec(
        sites=two,
        links=(LinkSpec("a", "b"), LinkSpec("b", "a")))) == "links[1]"


def test_fault_target_validation_lists_planned_targets():
    spec = small_spec(faults={"seed": 1, "faults": [
        {"at": 5.0, "kind": "blade_crash", "target": "blade9"}]})
    with pytest.raises(SpecError) as exc:
        plan_storage(spec)
    assert exc.value.path == "faults[0].target"
    assert "blade1" in str(exc.value)       # the inventory is in the message


def test_malformed_fault_doc_path():
    with pytest.raises(SpecError) as exc:
        plan_storage(small_spec(faults={"seed": 1, "faults": [
            {"at": 5.0, "kind": "warp_core_breach", "target": "blade0"}]}))
    assert exc.value.path == "faults[0].kind"


# -- layout arithmetic ---------------------------------------------------------


def test_single_site_plan_geometry_matches_config_arithmetic():
    plan = plan_storage(small_spec())
    assert plan.kind == "system"
    sp = plan.sites[0]
    config = sp.config
    width = config.data_per_stripe + 1
    slots = config.disk_capacity // config.block_size
    stripes = int(config.disk_count * slots * 0.8) // width
    assert sp.stripe_width == width
    assert sp.stripe_count == stripes
    assert sp.capacity_bytes == stripes * config.data_per_stripe \
        * config.block_size
    assert sp.blades == ("blade0", "blade1")
    assert len(sp.disks) == 8
    assert sp.cache_blocks_per_blade == max(
        1, config.cache_bytes_per_blade // config.block_size)


def test_plan_carries_seed_and_campaign_toggles_into_configs():
    plan = plan_storage(small_spec(seed=77, observability=True,
                                   integrity=True))
    config = plan.sites[0].config
    assert config.seed == 77
    assert config.observability and config.integrity
    assert config.name == "site0"


def test_multi_site_defaults_to_full_mesh():
    plan = plan_storage(small_spec(sites=(
        SiteSpec("a"), SiteSpec("b", (0.0, 300.0)),
        SiteSpec("c", (400.0, 0.0)))))
    assert plan.kind == "geo"
    assert {lp.name for lp in plan.links} == {
        "wan:a<->b", "wan:a<->c", "wan:b<->c"}
    ab = next(lp for lp in plan.links if lp.name == "wan:a<->b")
    assert ab.distance_km == pytest.approx(300.0)


def test_fault_target_inventory_by_kind():
    single = plan_storage(small_spec())
    assert "blade0" in single.fault_targets
    assert "disk0" in single.fault_targets
    assert "cache" in single.fault_targets

    geo = plan_storage(small_spec(
        sites=(SiteSpec("a"), SiteSpec("b", (0.0, 300.0)))))
    for t in ("a", "b", "wan:a<->b", "a.blade0", "b.disk7", "a.cache"):
        assert t in geo.fault_targets

    wan = plan_storage(ScenarioSpec(
        site_backing="aggregate",
        sites=(SiteSpec("a"), SiteSpec("b", (0.0, 300.0)))))
    assert wan.kind == "wan"
    assert set(wan.fault_targets) == {"a", "b", "wan:a<->b"}
    assert wan.sites[0].config is None


# -- plan serialization --------------------------------------------------------


def test_plan_json_round_trip_identity():
    spec = small_spec(
        seed=5, observability=True,
        sites=(SiteSpec("a"), SiteSpec("b", (0.0, 800.0))),
        faults={"seed": 3, "faults": [
            {"at": 10.0, "kind": "site_loss", "target": "a",
             "duration": 60.0}]})
    plan = plan_storage(spec)
    again = Plan.from_json(plan.to_json())
    assert again.as_dict() == plan.as_dict()
    assert again.to_json() == plan.to_json()
    assert again.spec == spec


def test_stale_plan_file_rejected():
    plan = plan_storage(small_spec())
    doc = plan.as_dict()
    doc["sites"][0]["stripe_count"] += 1   # layout rules "changed"
    with pytest.raises(SpecError) as exc:
        Plan.from_json(json.dumps(doc))
    assert "stale" in str(exc.value)
    assert exc.value.path == "plan.sites"


def test_describe_mentions_layout_and_campaigns():
    text = plan_storage(small_spec(
        faults={"seed": 1, "faults": [
            {"at": 1.0, "kind": "blade_crash", "target": "blade0"}]},
        observability=True)).describe()
    assert "kind=system" in text
    assert "2 blades" in text
    assert "faults=1" in text
    assert "obs=True" in text


def test_plan_site_lookup():
    plan = plan_storage(small_spec())
    assert plan.site("site0").name == "site0"
    with pytest.raises(KeyError):
        plan.site("mars")


# -- the cache-bench planner ---------------------------------------------------


def test_cache_bench_plan_layout():
    plan = plan_cache_bench(CacheBenchSpec(blade_count=3,
                                           cache_bytes=mib(1)))
    assert plan.blades == ("blade0", "blade1", "blade2")
    assert plan.cache_blocks_per_blade == mib(1) // (64 * 1024)
    assert plan.interconnect_bandwidth == pytest.approx(
        3 * CacheBenchSpec().interconnect_per_blade)


def test_cache_bench_spec_validation():
    with pytest.raises(ValueError):
        CacheBenchSpec(blade_count=0)
    with pytest.raises(ValueError):
        CacheBenchSpec(blade_count=2, replication=3)
    with pytest.raises(SpecError) as exc:
        CacheBenchSpec.from_dict({"blades": 4})
    assert exc.value.path == "cache_bench"
