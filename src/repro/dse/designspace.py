"""Latency-domain design-space enumeration.

A design space is a set of per-event candidate latencies (Fig 1b's
"latency combinations"); its points are full :class:`LatencyConfig`
instances.  Spaces compose with structure-domain choices externally (one
space per structure, as in Fig 6c).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.common.config import LatencyConfig
from repro.common.events import LATENCY_DOMAIN, NUM_EVENTS, EventType


@dataclass(frozen=True)
class DesignSpace:
    """Cartesian latency design space over selected events.

    Attributes:
        base: the design point supplying all unswept latencies.
        axes: event -> tuple of candidate cycle counts, one axis per
            event (``ValueError`` otherwise).
    """

    base: LatencyConfig
    axes: Tuple[Tuple[EventType, Tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        events = [EventType(event) for event, _values in self.axes]
        for index, event in enumerate(events):
            if event in events[:index]:
                raise ValueError(f"{event.name} is swept on two axes")

    @classmethod
    def from_mapping(
        cls,
        axes: Mapping[EventType, Iterable[int]],
        base: LatencyConfig = None,
    ) -> "DesignSpace":
        base = base or LatencyConfig()
        normalised: List[Tuple[EventType, Tuple[int, ...]]] = []
        for event, values in axes.items():
            event = EventType(event)
            if event not in LATENCY_DOMAIN:
                raise ValueError(
                    f"{event.name} is structure-domain; only latency-domain "
                    "events can be swept from a single simulation"
                )
            candidates = tuple(sorted(set(int(v) for v in values)))
            if not candidates:
                raise ValueError(f"empty axis for {event.name}")
            if candidates[0] < 0:
                raise ValueError(f"negative latency on axis {event.name}")
            normalised.append((event, candidates))
        return cls(base=base, axes=tuple(normalised))

    @property
    def num_points(self) -> int:
        count = 1
        for _event, values in self.axes:
            count *= len(values)
        return count

    def __len__(self) -> int:
        return self.num_points

    def __iter__(self) -> Iterator[LatencyConfig]:
        events = [event for event, _values in self.axes]
        for combo in product(*(values for _event, values in self.axes)):
            yield self.base.with_overrides(dict(zip(events, combo)))

    def points(self) -> List[LatencyConfig]:
        """Materialise every design point (row-major over the axes)."""
        return list(self)

    # ---- array-native enumeration (the sweep-engine hot path) --------

    def _strides(self) -> Tuple[int, ...]:
        """Row-major mixed-radix strides: flat index -> per-axis digit.

        The flat enumeration order matches :meth:`__iter__` (the last
        axis varies fastest), so ``point_at(i)`` is the ``i``-th point
        of ``points()``.
        """
        strides = []
        stride = 1
        for _event, values in reversed(self.axes):
            strides.append(stride)
            stride *= len(values)
        return tuple(reversed(strides))

    def point_at(self, index: int) -> LatencyConfig:
        """Decode one flat enumeration index into a design point."""
        if not 0 <= index < self.num_points:
            raise IndexError(
                f"index {index} outside space of {self.num_points} points"
            )
        overrides = {}
        for (event, values), stride in zip(self.axes, self._strides()):
            overrides[event] = values[(index // stride) % len(values)]
        return self.base.with_overrides(overrides)

    def theta_matrix(self, start: int = 0, stop: int = None) -> np.ndarray:
        """Pricing vectors of points ``[start, stop)`` as one array.

        Returns a ``(NUM_EVENTS, stop - start)`` float64 matrix whose
        column ``j`` is ``point_at(start + j).as_vector()``: the base
        vector in every column, then one gather per swept axis from its
        flat indices, with no per-point :class:`LatencyConfig` objects.
        """
        total = self.num_points
        stop = total if stop is None else stop
        if not 0 <= start <= stop <= total:
            raise IndexError(
                f"chunk [{start}, {stop}) outside space of {total} points"
            )
        thetas = np.empty((NUM_EVENTS, stop - start), dtype=np.float64)
        thetas[...] = self.base.as_vector()[:, np.newaxis]
        flat = np.arange(start, stop)
        for (event, values), stride in zip(self.axes, self._strides()):
            thetas[int(event)] = np.asarray(values, dtype=np.float64)[
                flat // stride % len(values)
            ]
        return thetas

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` pricing vectors of the box holding every point.

        A swept event spans its axis' smallest to largest value (an axis
        of a directly built space need not be sorted); every other event
        sits at the base latency.  Every column of :meth:`theta_matrix`
        lies inside the box.
        """
        lo = self.base.as_vector()
        hi = lo.copy()
        for event, values in self.axes:
            lo[int(event)] = min(values)
            hi[int(event)] = max(values)
        return lo, hi

    def sample(self, count: int, seed: int = 0) -> List[LatencyConfig]:
        """A deterministic uniform sample of *count* design points.

        When ``count <= num_points`` the sample is drawn from the flat
        index space *without replacement*, so no design point appears
        twice; asking for more points than the space holds falls back to
        sampling with replacement (duplicates are then unavoidable).
        """
        rng = np.random.default_rng(seed)
        total = self.num_points
        if count <= total:
            if total <= 1 << 20:
                indices = rng.choice(total, size=count, replace=False)
            else:
                # Rejection sampling keeps memory bounded on huge spaces
                # (count <= 2**20 < total, so collisions stay rare).
                chosen: set = set()
                indices = []
                while len(indices) < count:
                    draw = int(rng.integers(0, total))
                    if draw not in chosen:
                        chosen.add(draw)
                        indices.append(draw)
        else:
            indices = rng.integers(0, total, size=count)
        return [self.point_at(int(index)) for index in indices]


def reduction_space(
    events: Sequence[EventType],
    base: LatencyConfig = None,
    fractions: Sequence[float] = (1.0, 0.75, 0.5, 0.25),
) -> DesignSpace:
    """A space scaling each event's baseline latency by the fractions.

    Latencies are rounded and clamped to at least one cycle (integer-cycle
    operation, per Section V-B).
    """
    base = base or LatencyConfig()
    axes: Dict[EventType, List[int]] = {}
    for event in events:
        axes[EventType(event)] = [
            max(1, int(round(base[event] * fraction))) for fraction in fractions
        ]
    return DesignSpace.from_mapping(axes, base=base)
