"""Writing ``.npz`` archives at a fixed, fast deflate level.

``np.savez_compressed`` always deflates at zlib's default level (6),
which made deflation most of the time a store spends writing an
analysis.  The trace and model archives are written here instead, with
``zipfile`` and ``np.lib.format.write_array`` at level 1: the same
``.npz`` container, so ``np.load`` reads it unchanged.
"""

from __future__ import annotations

import pathlib
import zipfile
from typing import Mapping

import numpy as np

#: zlib level of every archive member.
DEFLATE_LEVEL = 1


def save_npz(path: pathlib.Path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write *arrays* to *path* as a deflated ``.npz``, one ``<key>.npy``
    member per array, in *arrays*' order."""
    with zipfile.ZipFile(
        path, "w", compression=zipfile.ZIP_DEFLATED,
        compresslevel=DEFLATE_LEVEL,
    ) as archive:
        for key, value in arrays.items():
            # force_zip64 as np.savez does: a member's size is unknown
            # when its header is written.
            with archive.open(key + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(
                    member, np.asanyarray(value), allow_pickle=False
                )
