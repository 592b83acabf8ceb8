"""The inter-site WAN: links, routing, and bulk transfer (§7).

"The link connecting sites can be one of a variety of network
technologies – the choice of technology dictates the overall performance
and bandwidth": each link carries its own bandwidth and a latency derived
from fibre distance.  Routing is latency-weighted shortest path over the
site graph, skipping failed sites and downed links, so a three-site ring
keeps working when the middle site burns down.  The search is a port of
networkx's bidirectional Dijkstra, so equal-latency routes break ties the
way they did when networkx routed (``tests/test_geo_route_port.py``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import TYPE_CHECKING, Iterator

from ..sim.events import Event
from ..sim.faults import SimulatedFault
from ..sim.link import FairShareLink
from ..sim.units import gbps, wan_latency
from .site import Site

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


class NoRouteError(SimulatedFault):
    """No surviving path between two sites."""


class WanLink(FairShareLink):
    """One fibre run between two sites, optionally an encrypted tunnel.

    §5.1: "when controller systems are deployed in multiple locations ...
    the communication conduit between remote controller clusters would
    also need protection."  An encrypted tunnel pushes every byte through
    the endpoint crypto engines; with the hardware engine the effective
    rate stays at wire speed, while software crypto throttles the link.
    """

    def __init__(self, sim: "Simulator", a: Site, b: Site,
                 bandwidth: float = gbps(2.5),
                 distance_km: float | None = None,
                 encrypted: bool = False,
                 crypto_mode: str = "hardware") -> None:
        if distance_km is None:
            distance_km = a.distance_to(b)
        effective = bandwidth
        if encrypted:
            from ..security.crypto import CryptoCostModel
            model = CryptoCostModel()
            engine_rate = (model.hardware_rate if crypto_mode == "hardware"
                           else model.software_rate)
            # Data crosses encrypt and decrypt engines in series with the
            # fibre; the slowest stage paces the tunnel.
            effective = min(bandwidth, engine_rate)
        super().__init__(sim, effective, wan_latency(distance_km),
                         name=f"wan:{a.name}<->{b.name}")
        self.a = a
        self.b = b
        self.distance_km = distance_km
        self.encrypted = encrypted
        self.crypto_mode = crypto_mode if encrypted else "off"


class WanNetwork:
    """The site graph with latency-weighted routing."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.sites: dict[str, Site] = {}
        #: ``{site: {neighbour: link}}``, both levels in insertion order:
        #: routing explores neighbours in this order, which breaks ties.
        self._adj: dict[str, dict[str, WanLink]] = {}
        #: Transfer observers (e.g. :class:`~repro.geo.selection.
        #: RouteHistory`): objects with ``transfer_started(src, dst,
        #: nbytes, hops)`` and ``transfer_completed(src, dst, nbytes,
        #: hops, start, end, ok)``.  Notification is pure bookkeeping on
        #: existing events — with no observers the path is untouched.
        self.observers: list = []
        #: State listeners: ``fn(obj, failed)`` called whenever a member
        #: site or link transitions up/down.  ``obj`` is the Site or link
        #: itself.  Synchronous bookkeeping fan-out (no kernel events), so
        #: subscribing is fingerprint-neutral until a transition happens.
        self.state_listeners: list = []
        #: ``(src, dst) -> links`` (``None``: no path), derived from the
        #: links and their up/down states, so dropped on every change to
        #: either.  A new site is isolated until ``connect``, so adding one
        #: changes no route.
        self._routes: dict[tuple[str, str], list[WanLink] | None] = {}

    def _forward_state(self, obj, failed: bool) -> None:
        # Drop cached routes before any listener can route on them.
        self._routes.clear()
        for fn in self.state_listeners:
            fn(obj, failed)

    def add_site(self, site: Site) -> Site:
        """Register a site as a routing node."""
        if site.name in self.sites:
            raise ValueError(f"site {site.name!r} already added")
        self.sites[site.name] = site
        self._adj[site.name] = {}
        site.on_state_change.append(self._forward_state)
        return site

    def connect(self, a: Site, b: Site, bandwidth: float = gbps(2.5),
                distance_km: float | None = None,
                encrypted: bool = False,
                crypto_mode: str = "hardware") -> WanLink:
        """Lay a fibre (optionally an encrypted tunnel) between two sites."""
        for site in (a, b):
            if site.name not in self.sites:
                raise ValueError(f"site {site.name!r} not in network")
        link = WanLink(self.sim, a, b, bandwidth, distance_km,
                       encrypted=encrypted, crypto_mode=crypto_mode)
        self._adj[a.name][b.name] = self._adj[b.name][a.name] = link
        self._routes.clear()
        link.on_state_change.append(self._forward_state)
        return link

    def link(self, a: str, b: str) -> WanLink:
        """The link between two named sites (KeyError if none)."""
        return self._adj[a][b]

    def links(self) -> Iterator[tuple[str, str, WanLink]]:
        """Every link once as ``(u, v, link)``, ``u`` the site added
        first, sorted by ``(u, v)``: the order fault binders walk."""
        order = {name: i for i, name in enumerate(self._adj)}
        edges = [(u, v, link) for u, nbrs in self._adj.items()
                 for v, link in nbrs.items() if order[u] <= order[v]]
        yield from sorted(edges, key=lambda e: (e[0], e[1]))

    # -- routing ------------------------------------------------------------------------

    def route(self, src: Site, dst: Site) -> list[WanLink]:
        """Surviving latency-shortest path; raises NoRouteError if cut.

        Skips failed sites *and* flapped-down links, so a partition heals
        itself through an alternate fibre when the topology has one.
        """
        if src.failed or dst.failed:
            raise NoRouteError(
                f"endpoint down: {src.name if src.failed else dst.name}")
        pair = (src.name, dst.name)
        try:
            links = self._routes[pair]
        except KeyError:
            try:
                names = self._shortest_path(*pair)
            except NoRouteError:
                links = None
            else:
                links = [self._adj[u][v] for u, v in zip(names, names[1:])]
            self._routes[pair] = links
        if links is None:
            raise NoRouteError(f"no path {src.name} -> {dst.name}")
        return list(links)

    def _shortest_path(self, source: str, target: str) -> list[str]:
        """networkx 3.6's ``bidirectional_dijkstra`` over the usable graph.

        Kept step for step (alternating directions, one ``(dist, count,
        node)`` counter for both heaps, neighbours in insertion order, the
        same meet-node rule) so that equal-latency paths resolve exactly
        as networkx resolved them.  Failed links and failed sites are not
        usable; :meth:`route` has already refused failed endpoints.
        """
        adj, sites = self._adj, self.sites
        if source not in adj or target not in adj:
            raise NoRouteError(f"no path {source} -> {target}")
        if source == target:
            return [source]
        dists: tuple[dict, dict] = ({}, {})
        preds: tuple[dict, dict] = ({source: None}, {target: None})
        seen: tuple[dict, dict] = ({source: 0}, {target: 0})
        c = count()
        fringe = ([(0, next(c), source)], [(0, next(c), target)])
        finaldist = meetnode = None
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, v = heappop(fringe[direction])
            if v in dists[direction]:
                continue
            dists[direction][v] = dist
            if v in dists[1 - direction]:
                fwd, back = [], []
                node = meetnode
                while node is not None:
                    fwd.append(node)
                    node = preds[0][node]
                node = preds[1][meetnode]
                while node is not None:
                    back.append(node)
                    node = preds[1][node]
                return fwd[::-1] + back
            for w, link in adj[v].items():
                if link.failed or sites[w].failed or w in dists[direction]:
                    continue
                length = dist + link.latency
                if w not in seen[direction] or length < seen[direction][w]:
                    seen[direction][w] = length
                    heappush(fringe[direction], (length, next(c), w))
                    preds[direction][w] = v
                    if w in seen[1 - direction]:
                        total = length + seen[1 - direction][w]
                        if finaldist is None or finaldist > total:
                            finaldist, meetnode = total, w
        raise NoRouteError(f"no path {source} -> {target}")

    def reachable(self, src: Site, dst: Site) -> bool:
        """True when a surviving route exists right now (no side effects)."""
        try:
            self.route(src, dst)
        except NoRouteError:
            return False
        return True

    def rtt(self, src: Site, dst: Site) -> float:
        """Round-trip propagation time along the current route."""
        return 2.0 * sum(link.latency for link in self.route(src, dst))

    def transfer(self, src: Site, dst: Site, nbytes: int) -> Event:
        """Move bytes along the route; all hops carry the flow concurrently."""
        links = self.route(src, dst)
        if len(links) == 1:
            ev = links[0].transfer(nbytes)
        else:
            ev = self.sim.all_of([link.transfer(nbytes) for link in links])
        if self.observers:
            hops = len(links)
            start = self.sim.now
            for ob in self.observers:
                ob.transfer_started(src, dst, nbytes, hops)

            def _completed(done: Event) -> None:
                for ob in self.observers:
                    ob.transfer_completed(src, dst, nbytes, hops, start,
                                          self.sim.now, done.ok)

            ev.add_callback(_completed)
        return ev

    def neighbors_by_distance(self, origin: Site,
                              min_distance_km: float = 0.0) -> list[Site]:
        """Live candidate replica sites, nearest first, at least this far."""
        out = [site for name, site in self.sites.items()
               if site is not origin and not site.failed
               and origin.distance_to(site) >= min_distance_km]
        out.sort(key=lambda s: (origin.distance_to(s), s.name))
        return out
