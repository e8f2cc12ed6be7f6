"""Writing ``.npz`` archives at a fixed, fast deflate level.

``np.savez_compressed`` always deflates at zlib's default level (6),
which made deflation most of the time a store spends writing an
analysis.  The trace and model archives are written here instead, with
``zipfile`` and ``np.lib.format.write_array`` at level 1: the same
``.npz`` container, so ``np.load`` reads it unchanged.  Both writers
name their files by one rule, :func:`normalise_archive_path`.
"""

from __future__ import annotations

import pathlib
import zipfile
from typing import Mapping, Union

import numpy as np

#: zlib level of every archive member.
DEFLATE_LEVEL = 1


def normalise_archive_path(path: Union[str, pathlib.Path]) -> pathlib.Path:
    """The actual on-disk path for a requested archive path.

    Archives are always ``.npz`` (what ``np.load`` reads), so the
    requested name is *normalised* rather than blindly suffixed:

    * ``trace.npz``    -> ``trace.npz``      (already correct)
    * ``trace``        -> ``trace.npz``      (extension added)
    * ``trace.dat``    -> ``trace.npz``      (extension replaced)
    * ``trace.npz.gz`` -> ``trace.npz``      (trailing decorations after
      ``.npz`` dropped)
    """
    path = pathlib.Path(path)
    name = path.name
    if name.endswith(".npz"):
        return path
    if ".npz." in name:
        stem = name[: name.index(".npz.") + len(".npz")]
        return path.with_name(stem)
    if path.suffix:
        return path.with_suffix(".npz")
    return path.with_name(name + ".npz")


def save_npz(
    path: Union[str, pathlib.Path], arrays: Mapping[str, np.ndarray]
) -> pathlib.Path:
    """Write *arrays* as a deflated ``.npz``, one ``<key>.npy`` member
    per array, in *arrays*' order, at :func:`normalise_archive_path` of
    *path* (parent directories created); returns the path written."""
    path = normalise_archive_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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
    return path
