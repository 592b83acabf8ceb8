"""FaultPlan: a seeded, serializable schedule of typed faults.

A plan is pure data — *what* breaks, *when*, for *how long* — decoupled
from the components it will hit (the :class:`~repro.faults.injector.
FaultInjector` binds names to objects at run time).  Plans are
deterministic: hand-built ones replay exactly, and :meth:`FaultPlan.
random` derives every draw from named :class:`~repro.sim.rng.RngStreams`
substreams, so the same seed and rates always produce the same campaign
regardless of what else the simulation draws.  ``to_json``/``from_json``
(the shared :mod:`repro.sim.codec`) round-trip a plan for checked-in CI
fixtures and experiment provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping

from ..sim.codec import Spec
from ..sim.rng import RngStreams


class FaultKind(str, Enum):
    """The typed faults the injector knows how to apply.

    ``str`` mixin so specs sort deterministically on time ties and plans
    serialize without custom encoders.
    """

    BLADE_CRASH = "blade_crash"    # controller blade dies (cache contents lost)
    DISK_FAIL = "disk_fail"        # spindle dies; declustered rebuild territory
    LINK_FLAP = "link_flap"        # link down/up (partition when it's a WAN cut)
    SITE_LOSS = "site_loss"        # whole-site disaster (§6.2)
    PARTITION = "partition"        # bidirectional cut between site groups
    SLOW_NODE = "slow_node"        # latency inflation, the gray failure
    TRANSIENT_IO = "transient_io"  # one-shot backing I/O errors
    # Silent-data-corruption kinds (see repro.integrity): at-rest damage
    # on a disk target, or in-flight damage on a transfer target.
    BITROT = "bitrot"                        # media decay of stored chunks
    TORN_WRITE = "torn_write"                # partial sector update at rest
    MISDIRECTED_WRITE = "misdirected_write"  # data landed at the wrong LBA
    WIRE_CORRUPT = "wire_corrupt"            # payload damaged in flight


#: Kinds whose damage is silent until verified (no timed repair window).
_CORRUPTION_KINDS = frozenset({
    FaultKind.BITROT, FaultKind.TORN_WRITE, FaultKind.MISDIRECTED_WRITE,
    FaultKind.WIRE_CORRUPT,
})


def parse_partition_target(target: str) -> tuple[tuple[str, ...],
                                                 tuple[str, ...]]:
    """Parse a PARTITION target: ``"a,b|c"`` = cut {a,b} from {c}.

    Exactly two ``|``-separated groups of comma-separated site names;
    both non-empty and disjoint.  Every WAN link with one endpoint in
    each group goes down for the fault's duration — a *bidirectional*
    cut, unlike a single LINK_FLAP which other fibres can route around.
    """
    groups = target.split("|")
    if len(groups) != 2:
        raise ValueError(
            f"partition target must be 'siteA,siteB|siteC' (exactly two "
            f"'|'-separated groups), got {target!r}")
    parsed = []
    for raw in groups:
        names = tuple(sorted({n.strip() for n in raw.split(",")
                              if n.strip()}))
        if not names:
            raise ValueError(
                f"partition target {target!r} has an empty site group")
        parsed.append(names)
    overlap = set(parsed[0]) & set(parsed[1])
    if overlap:
        raise ValueError(
            f"partition target {target!r} lists "
            f"{sorted(overlap)} on both sides of the cut")
    return parsed[0], parsed[1]


@dataclass(frozen=True, order=True)
class FaultSpec(Spec):
    """One scheduled fault.

    ``at`` is absolute simulated seconds.  ``duration`` > 0 schedules the
    matching repair/clear that much later; 0 means permanent (until model
    code repairs it).  ``severity`` is kind-specific: the slow-node
    inflation factor, or the number of consecutive transient I/O errors.
    """

    at: float
    kind: FaultKind
    target: str
    duration: float = 0.0
    severity: float = 1.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")


@dataclass
class FaultPlan(Spec):
    """An ordered, replayable fault campaign.

    ``faults`` takes any iterable of :class:`FaultSpec` and is kept
    sorted; ``seed`` is provenance only (None for hand-built plans).
    """

    faults: list[FaultSpec] = field(default_factory=list)
    seed: int | None = None

    def __post_init__(self) -> None:
        self.faults = sorted(self.faults)

    # -- construction ----------------------------------------------------------

    def add(self, at: float, kind: FaultKind | str, target: str,
            duration: float = 0.0, severity: float = 1.0) -> "FaultPlan":
        """Append one fault (keeps the schedule sorted); returns self."""
        spec = FaultSpec(at, FaultKind(kind), target, duration, severity)
        self.faults.append(spec)
        self.faults.sort()
        return self

    @classmethod
    def random(cls, seed: int, horizon: float,
               targets: Mapping[FaultKind | str, Iterable[str]],
               mtbf: float, mttr: float,
               slow_factor: float = 4.0,
               transient_burst: int = 3,
               corruption_burst: int = 1) -> "FaultPlan":
        """A stochastic campaign: exponential inter-fault times per target.

        For every ``(kind, target)`` pair, fault arrivals are Poisson with
        mean ``mtbf`` and each outage lasts an exponential ``mttr`` —
        drawn from the substream named after the pair, so adding a target
        never perturbs another target's timeline.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        if mtbf <= 0 or mttr <= 0:
            raise ValueError("mtbf and mttr must be > 0")
        streams = RngStreams(seed)
        specs: list[FaultSpec] = []
        for raw_kind, names in sorted(targets.items(),
                                      key=lambda kv: FaultKind(kv[0]).value):
            kind = FaultKind(raw_kind)
            for target in sorted(names):
                rng = streams.stream(f"faultplan.{kind.value}.{target}")
                t = 0.0
                while True:
                    t += float(rng.exponential(mtbf))
                    if t >= horizon:
                        break
                    duration = float(rng.exponential(mttr))
                    severity = 1.0
                    if kind is FaultKind.SLOW_NODE:
                        severity = slow_factor
                    elif kind is FaultKind.TRANSIENT_IO:
                        severity = float(transient_burst)
                        duration = 0.0  # nothing to repair
                    elif kind in _CORRUPTION_KINDS:
                        # Silent until a verification point finds it, so
                        # there is no timed repair; severity = incidents.
                        severity = float(corruption_burst)
                        duration = 0.0
                    specs.append(FaultSpec(t, kind, target, duration,
                                           severity))
                    t += duration  # next uptime starts after the repair
        return cls(specs, seed=seed)

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.faults)

    def by_kind(self, kind: FaultKind | str) -> list[FaultSpec]:
        kind = FaultKind(kind)
        return [s for s in self.faults if s.kind is kind]
