"""ADDC (Algorithm 1) as a MAC policy.

The engine owns the carrier-sensing/backoff machinery (lines 1-11); this
policy contributes the two ADDC-specific decisions:

* **routing** — every packet goes to the node's parent in the CDS-based
  data-collection tree (Section IV-A), and
* **fairness** — the post-transmission wait ``tau_c - t_i`` is enabled
  (line 12); ``fairness_wait=False`` gives the Ablation-A variant.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, GraphError
from repro.graphs.tree import CollectionTree
from repro.sim.packet import Packet

__all__ = ["AddcPolicy"]


class AddcPolicy:
    """Tree-parent forwarding with the Algorithm 1 fairness wait.

    ``graph`` (the secondary network's ``G_s``) is only needed when the
    engine injects runtime node departures: the policy then repairs the
    tree locally (:mod:`repro.graphs.repair`) and reports any partitioned
    nodes.
    """

    def __init__(
        self, tree: CollectionTree, fairness_wait: bool = True, graph=None
    ) -> None:
        self.tree = tree
        self.fairness_wait = bool(fairness_wait)
        self.graph = graph
        # Roles of transiently-down nodes, restored on rejoin so a
        # recovered backbone member comes back *as backbone* and its
        # stranded former descendants can re-adopt it.
        self._saved_roles = {}
        # Tree version: bumped on every departure and successful rejoin,
        # the only events that change which nodes can attach.  A rejoin
        # that failed at the current version fails again without a scan.
        self._tree_version = 0
        self._failed_at = {}
        # Departure repairs leave deeper depths stale; a rejoin alone
        # keeps them exact (the rejoining node is a leaf).
        self._depths_stale = False

    def next_hop(self, node: int, packet: Packet) -> int:
        """Forward to the collection-tree parent, whatever the packet."""
        parent = self.tree.parent[node]
        if parent == node:
            raise ConfigurationError(
                "the base station never transmits; a packet was queued at the root"
            )
        if parent == -1:
            raise ConfigurationError(
                f"node {node} is detached from the collection tree"
            )
        return parent

    def on_node_departure(self, node: int):
        """Repair the tree after ``node`` leaves; return partitioned nodes.

        Direct children re-parent locally; a child with no surviving
        backbone neighbour is stranded and takes its whole subtree with it.
        """
        if self.graph is None:
            raise ConfigurationError(
                "AddcPolicy needs the secondary graph to repair departures; "
                "construct it with graph=G_s"
            )
        from repro.graphs.repair import detach_node, orphaned_subtree

        self._tree_version += 1
        self._depths_stale = True
        partitioned = []
        for child in detach_node(self.tree, self.graph, node):
            subtree = orphaned_subtree(self.tree, child)
            partitioned.append(child)
            partitioned.extend(subtree)
            for orphan in [child, *subtree]:
                self.tree.parent[orphan] = -1
        return partitioned

    def on_node_outage(self, node: int):
        """Repair around a transiently-down node, remembering roles.

        Same tree surgery as a departure, but the roles of the node and of
        every node the repair strands are saved for :meth:`on_node_rejoin`.
        """
        self._saved_roles.setdefault(node, self.tree.roles[node])
        partitioned = self.on_node_departure(node)
        for orphan in partitioned:
            self._saved_roles.setdefault(orphan, self.tree.roles[orphan])
        return partitioned

    def on_node_rejoin(self, node: int) -> bool:
        """Try to re-attach a recovered node; ``False`` means retry later.

        Attachment needs an adjacent attached backbone member
        (:func:`repro.graphs.repair.attach_node`); a recovered node whose
        neighbourhood is still down waits.  On success the node's
        pre-outage role is restored and depths are refreshed so
        depth-ordered repairs stay consistent.

        Both shortcuts below are exact.  Whether an attach fails depends
        only on the tree's ``parent`` and ``roles``, which change only at
        departures and successful rejoins, so a node that failed since the
        last such event fails again.  A rejoining node has no children (a
        repair detaches or strands every child of a down node, and nothing
        attaches under a detached one), so attaching it sets its own depth
        exactly; only a departure repair leaves other depths stale.
        """
        if self.graph is None:
            raise ConfigurationError(
                "AddcPolicy needs the secondary graph to repair outages; "
                "construct it with graph=G_s"
            )
        from repro.graphs.repair import attach_node, refresh_depths

        if self._failed_at.get(node) == self._tree_version:
            return False
        try:
            attach_node(self.tree, self.graph, node)
        except GraphError:
            self._failed_at[node] = self._tree_version
            return False
        self._tree_version += 1
        saved = self._saved_roles.pop(node, None)
        if saved is not None:
            self.tree.roles[node] = saved
        if self._depths_stale:
            refresh_depths(self.tree)
            self._depths_stale = False
        return True

    def describe(self) -> str:
        """Policy name for reports."""
        suffix = "" if self.fairness_wait else " (no fairness wait)"
        return f"ADDC{suffix}"
