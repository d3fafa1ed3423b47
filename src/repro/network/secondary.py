"""The secondary network: SUs, the base station, and the graph ``G_s``.

Node id convention used throughout the package:

* node ``0`` is the base station ``s_b``,
* nodes ``1..n`` are the SUs ``s_1..s_n``.

``G_s`` is the unit-disk graph induced by the SU transmission radius ``r``
over all ``n + 1`` nodes (Section III).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.graphs.graph import Graph

__all__ = ["SecondaryNetwork", "BASE_STATION"]

#: Node id of the base station in every secondary network.
BASE_STATION = 0


class SecondaryNetwork:
    """The unlicensed network of ``n`` SUs plus one base station.

    Parameters
    ----------
    positions:
        ``(n + 1, 2)`` array; row 0 is the base station.
    power:
        Common SU working power ``P_s``.
    radius:
        Maximum SU transmission radius ``r``.
    """

    def __init__(self, positions: np.ndarray, power: float, radius: float) -> None:
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ConfigurationError(
                f"SU positions must have shape (n + 1, 2), got {positions.shape}"
            )
        if positions.shape[0] < 2:
            raise ConfigurationError("need at least one SU besides the base station")
        if power <= 0:
            raise ConfigurationError(f"SU power must be positive, got {power}")
        if radius <= 0:
            raise ConfigurationError(f"SU radius must be positive, got {radius}")
        self.positions = positions
        self.power = float(power)
        self.radius = float(radius)
        self._graph: Graph | None = None

    @property
    def num_sus(self) -> int:
        """Number of secondary users n (base station excluded)."""
        return self.positions.shape[0] - 1

    @property
    def num_nodes(self) -> int:
        """Number of nodes including the base station (n + 1)."""
        return self.positions.shape[0]

    @property
    def base_station(self) -> int:
        """Node id of the base station (always 0)."""
        return BASE_STATION

    def su_ids(self) -> range:
        """Node ids of the SUs (``1..n``)."""
        return range(1, self.num_nodes)

    @property
    def graph(self) -> Graph:
        """``G_s``: the unit-disk graph at radius ``r`` (built lazily, cached)."""
        if self._graph is None:
            self._graph = Graph.from_positions(self.positions, self.radius)
        return self._graph

    def __repr__(self) -> str:
        return (
            f"SecondaryNetwork(num_sus={self.num_sus}, power={self.power}, "
            f"radius={self.radius})"
        )
