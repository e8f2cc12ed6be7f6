"""Textbook-style ASCII pipeline diagrams from a simulation trace.

Renders per-µop stage occupancy over cycles — the diagram every
architecture textbook draws — directly from a
:class:`~repro.simulator.trace.SimResult`.  Useful for debugging the
timing model, for teaching, and for eyeballing why a particular chain
serialises::

    seq opclass  0        10        20
    000 LOAD     F-NDr+IiiiC
    001 FP_ADD   F-ND....rIiiiiiC
    ...

Stage letters: ``F`` fetch, ``-`` decode, ``N`` rename, ``D`` dispatch,
``.`` waiting in the issue queue, ``r`` ready, ``I`` issue, ``i``
executing, ``+`` complete/waiting to commit, ``C`` commit.
"""

from __future__ import annotations

from typing import List

from repro.simulator.columns import TIMESTAMP_COLUMNS
from repro.simulator.trace import SimResult


def render_pipeline(
    result: SimResult,
    first: int = 0,
    count: int = 16,
    max_width: int = 120,
) -> str:
    """Render µops ``[first, first+count)`` as an ASCII pipeline diagram.

    Args:
        result: a completed simulation.
        first: first µop to draw.
        count: number of µops.
        max_width: clip the cycle axis to this many columns.

    Returns:
        The diagram as a multi-line string (header + one row per µop).
    """
    if count < 1:
        raise ValueError("count must be positive")
    first = max(0, first)
    last = min(result.num_uops, first + count)
    if first >= last:
        raise ValueError("window is outside the trace")

    stamps = list(
        zip(
            *(
                getattr(result.columns, name)[first:last].tolist()
                for name in TIMESTAMP_COLUMNS
            )
        )
    )
    origin = min(stamp[0] for stamp in stamps)  # t_fetch
    end = max(stamp[-1] for stamp in stamps)  # t_commit
    width = min(max_width, end - origin + 1)

    lines: List[str] = []
    axis = [" "] * width
    for tick in range(0, width, 10):
        label = str(origin + tick)
        for offset, char in enumerate(label):
            if tick + offset < width:
                axis[tick + offset] = char
    lines.append("seq  opclass   " + "".join(axis))

    for seq, (
        t_fetch, t_rename, t_dispatch, t_ready, t_issue, t_complete,
        t_commit,
    ) in zip(range(first, last), stamps):
        uop = result.workload[seq]
        row = [" "] * width

        def put(cycle: int, char: str, force: bool = False) -> None:
            column = cycle - origin
            if 0 <= column < width and (force or row[column] == " "):
                row[column] = char

        def fill(start: int, stop: int, char: str) -> None:
            for cycle in range(start, stop):
                put(cycle, char)

        put(t_fetch, "F", force=True)
        fill(t_fetch + 1, t_rename, "-")
        put(t_rename, "N", force=True)
        put(t_dispatch, "D", force=True)
        fill(t_dispatch + 1, t_ready, ".")
        if t_ready < t_issue:
            put(t_ready, "r", force=True)
            fill(t_ready + 1, t_issue, ".")
        put(t_issue, "I", force=True)
        fill(t_issue + 1, t_complete, "i")
        fill(t_complete, t_commit, "+")
        put(t_commit, "C", force=True)

        lines.append(f"{seq:03d}  {uop.opclass.name:<8s} " + "".join(row))
    return "\n".join(lines)
