"""Dynamic-edge models: the geography dimension made time-varying.

Entity churn changes *who* is in the system; edge churn changes *who can
talk to whom* among a fixed population.  The two are orthogonal stresses on
a protocol, and the paper's geography dimension covers both: neighbor
knowledge is only ever knowledge of the *current* neighbors.

:class:`EdgeRewiringChurn` rewires the overlay at a configurable rate while
(optionally) preserving connectivity; :func:`interval_connectivity` checks
the classical T-interval-connectivity property over a recorded trace.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.sim.errors import ConfigurationError, SimulationError
from repro.sim.events import PRIORITY_MEMBERSHIP
from repro.sim.trace import TraceLog
from repro.topology.graph import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.scheduler import Simulator

#: Populations up to this size take the seed code path on every rewiring
#: tick: enumerate all pairs and draw the absent edge from the sorted
#: enumeration.  That path makes exactly the same RNG draws as the seed
#: implementation, so every existing experiment (n ≤ 128) stays
#: byte-identical.  Larger populations rejection-sample the absent edge
#: instead — O(edges) per tick rather than O(n²).
LEGACY_PAIR_ENUMERATION_LIMIT = 256

#: Rejection-sampling attempts for an absent pair on large populations.
#: Overlays at that scale are sparse, so acceptance is near-certain; on a
#: pathologically dense graph the tick may skip the addition.
_ABSENT_SAMPLE_TRIES = 64


class EdgeRewiringChurn:
    """Rewires the communication graph at Poisson rate ``rate``.

    Each event removes one uniformly random existing edge and adds one
    uniformly random absent edge among the present processes.  With
    ``preserve_connectivity`` (the default) a removal that would disconnect
    the graph is skipped (the addition still happens), so the overlay stays
    usable while its shape drifts — the regime in which a wave's route can
    vanish mid-flight without anyone leaving.
    """

    def __init__(self, rate: float, preserve_connectivity: bool = True) -> None:
        if rate < 0:
            raise ConfigurationError(f"rewiring rate must be >= 0, got {rate}")
        self.rate = rate
        self.preserve_connectivity = preserve_connectivity
        self._sim: "Simulator | None" = None
        self._stop_at: float | None = None
        self.rewires = 0
        self.skipped_removals = 0

    def install(self, sim: "Simulator", stop_at: float | None = None) -> None:
        """Attach to ``sim`` and start rewiring."""
        if self._sim is not None:
            raise SimulationError("edge churn is already installed")
        self._sim = sim
        self._stop_at = stop_at
        if self.rate > 0:
            self._schedule_next()

    @property
    def sim(self) -> "Simulator":
        if self._sim is None:
            raise SimulationError("edge churn is not installed")
        return self._sim

    @property
    def rng(self) -> random.Random:
        return self.sim.rng_for("edge-churn")

    def _schedule_next(self) -> None:
        gap = self.rng.expovariate(self.rate)
        self.sim.schedule(
            gap, self._rewire, priority=PRIORITY_MEMBERSHIP, label="edge-churn"
        )

    def _rewire(self) -> None:
        if self._stop_at is not None and self.sim.now >= self._stop_at:
            return
        self._do_rewire()
        self._schedule_next()

    def _do_rewire(self) -> None:
        network = self.sim.network
        if network.population() < 3:
            return
        if network.population() > LEGACY_PAIR_ENUMERATION_LIMIT:
            self._do_rewire_sampled(network)
            return
        present = network.members()
        edges = sorted(network.edges())
        all_pairs = {
            (a, b) for i, a in enumerate(present) for b in present[i + 1:]
        }
        absent = sorted(all_pairs - set(edges))
        if edges:
            a, b = self.rng.choice(edges)
            if self.preserve_connectivity and self._is_bridge(network, a, b):
                self.skipped_removals += 1
            else:
                network.remove_edge(a, b)
        if absent:
            a, b = self.rng.choice(absent)
            network.add_edge(a, b)
        self.rewires += 1

    def _do_rewire_sampled(self, network) -> None:
        """Large-population tick: no all-pairs enumeration.

        The removed edge still comes from the sorted edge list (O(E log E),
        E ≪ n² on real overlays); the added edge is rejection-sampled
        uniformly from the absent pairs.
        """
        rng = self.rng
        edges = sorted(network.edges())
        if edges:
            a, b = rng.choice(edges)
            if self.preserve_connectivity and self._is_bridge(network, a, b):
                self.skipped_removals += 1
            else:
                network.remove_edge(a, b)
        for _ in range(_ABSENT_SAMPLE_TRIES):
            a = network.sample_present(rng)
            b = network.sample_present(rng, exclude=a)
            if a is None or b is None:
                break
            if b < a:
                a, b = b, a
            if not network.has_edge(a, b):
                network.add_edge(a, b)
                break
        self.rewires += 1

    @staticmethod
    def _is_bridge(network, a: int, b: int) -> bool:
        """Would removing (a, b) disconnect a from b?"""
        seen = {a}
        frontier = [a]
        while frontier:
            node = frontier.pop()
            for nbr in network.neighbors(node):
                if node == a and nbr == b:
                    continue  # pretend the edge is gone
                if nbr not in seen:
                    if nbr == b:
                        return False
                    seen.add(nbr)
                    frontier.append(nbr)
        return True

    def __repr__(self) -> str:
        return f"EdgeRewiringChurn(rate={self.rate})"


def edge_timeline(log: TraceLog) -> list[tuple[float, str, tuple[int, int]]]:
    """Extract the (time, 'up'|'down', edge) sequence from a trace.

    Only edges changed through :meth:`Network.add_edge` / ``remove_edge``
    appear; join-time attachments are reconstructed from join degrees by
    :func:`graph_at` instead.
    """
    timeline = []
    for event in log:
        if event.kind == "edge_up":
            timeline.append((event.time, "up", (event["a"], event["b"])))
        elif event.kind == "edge_down":
            timeline.append((event.time, "down", (event["a"], event["b"])))
    return timeline


def interval_connectivity(
    snapshots: list[Topology], window: int
) -> bool:
    """Check T-interval connectivity over a sequence of graph snapshots.

    The sequence is T-interval connected if every ``window`` consecutive
    snapshots share a connected spanning subgraph over their common nodes.
    ``window = 1`` degenerates to "each snapshot is connected".
    """
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    if not snapshots:
        return True
    for start in range(0, max(1, len(snapshots) - window + 1)):
        group = snapshots[start:start + window]
        common_nodes = set(group[0].nodes())
        for snap in group[1:]:
            common_nodes &= set(snap.nodes())
        if len(common_nodes) <= 1:
            continue
        common_edges = set(group[0].edges())
        for snap in group[1:]:
            common_edges &= set(snap.edges())
        core = Topology(nodes=common_nodes)
        for a, b in common_edges:
            if a in common_nodes and b in common_nodes:
                core.add_edge(a, b)
        if not core.is_connected():
            return False
    return True


def snapshot(network) -> Topology:
    """Capture the current communication graph as a Topology."""
    topo = Topology(nodes=network.present())
    for a, b in network.edges():
        topo.add_edge(a, b)
    return topo
