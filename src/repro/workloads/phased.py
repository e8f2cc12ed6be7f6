"""Multi-phase workload composition.

Real applications alternate between phases with different bottleneck
characters — exactly what SimPoint exploits.  A phased workload
concatenates independently generated streams, relocating each phase's
code and data into disjoint regions so basic-block vectors, caches and
TLBs see genuinely distinct behaviour per phase.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.isa.uop import Workload, WorkloadColumns
from repro.workloads.generator import WorkloadSpec, generate

#: Address stride separating consecutive phases' code regions.
CODE_REGION_BYTES = 4 * 1024 * 1024
#: Address stride separating consecutive phases' data regions.
DATA_REGION_BYTES = 256 * 1024 * 1024


def make_phased_workload(
    phases: Sequence[Tuple[WorkloadSpec, int]],
    name: str = "phased",
    seed: int = 0,
) -> Workload:
    """Concatenate phases into one workload.

    Args:
        phases: ``(spec, num_macro_ops)`` pairs, executed in order; each
            block runs the spec resized to its macro-op count.  The same
            spec may appear repeatedly (interleaved phases); all its
            blocks share one code/data region and one seed, i.e. they
            re-execute the same static code.
        name: name of the combined workload.
        seed: base seed; distinct specs use ``seed + region_index``.

    Returns:
        One valid :class:`Workload` with per-phase code/data relocated to
        disjoint regions.  The combined ``params`` declare the *maximum*
        phase footprints (for the cache-warming heuristics).
    """
    if not phases:
        raise ValueError("a phased workload needs at least one phase")
    # A spec appearing in several blocks is the *same static code*: it
    # keeps one region and one generation seed, so re-entering the phase
    # re-executes identical instructions (loops repeat).  By the
    # generator's prefix property each region is generated once, at its
    # longest block, and every block takes a prefix of that stream.
    region_of_spec = {}
    region_specs: List[WorkloadSpec] = []
    region_macros: List[int] = []
    for spec, macros in phases:
        if macros <= 0:
            raise ValueError("num_macro_ops must be positive")
        if spec not in region_of_spec:
            region_of_spec[spec] = len(region_specs)
            region_specs.append(spec)
            region_macros.append(0)
        index = region_of_spec[spec]
        region_macros[index] = max(region_macros[index], macros)
    streams = [
        generate(spec.resized(macros), seed=seed + index).columns
        for index, (spec, macros) in enumerate(
            zip(region_specs, region_macros)
        )
    ]
    blocks: List[WorkloadColumns] = []
    macro_base = 0
    for spec, macros in phases:
        index = region_of_spec[spec]
        stream = streams[index]
        block = stream.window(0, np.searchsorted(stream.macro_id, macros))
        # Relocate into the region's code and data ranges (branch
        # targets keep their region-relative pcs).
        block.macro_id += macro_base
        block.pc += index * CODE_REGION_BYTES
        block.mem_addr[block.mem_addr >= 0] += index * DATA_REGION_BYTES
        blocks.append(block)
        macro_base += macros
    max_ws = max(spec.working_set_bytes for spec in region_specs)
    max_code = max(spec.code_footprint_bytes for spec in region_specs)
    params = (
        ("working_set_bytes", max_ws),
        ("code_footprint_bytes", max_code),
        ("num_phases", len(phases)),
        ("seed", seed),
        # Per-phase footprints let the cache-warming heuristics decide
        # steady-state residency per address region (see
        # repro.simulator.prepass).
        (
            "phase_data_footprints",
            tuple(spec.working_set_bytes for spec in region_specs),
        ),
        (
            "phase_code_footprints",
            tuple(spec.code_footprint_bytes for spec in region_specs),
        ),
    )
    return Workload.from_columns(
        name, WorkloadColumns.concatenate(blocks), params
    )
