"""Writing ``.npz`` archives at a fixed, fast deflate level; opening them.

``np.savez_compressed`` always deflates at zlib's default level (6),
which made deflation most of the time a store spends writing an
analysis.  The trace and model archives are written here instead, with
``zipfile`` and ``np.lib.format.write_array`` at level 1: the same
``.npz`` container, so ``np.load`` reads it unchanged.  Both writers
name their files by one rule, :func:`normalise_archive_path`, and both
loaders open their files through :func:`open_npz`.
"""

from __future__ import annotations

import pathlib
import zipfile
from typing import Callable, Mapping, Union

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


def open_npz(
    path: Union[str, pathlib.Path], error: Callable[[str], Exception]
) -> np.lib.npyio.NpzFile:
    """Open the ``.npz`` archive at *path* (use it in a ``with`` block).

    Raises:
        error: the loader's format error, naming *path*, when the file
            is empty, truncated or no ``.npz`` archive at all.
        OSError: the file cannot be read.
    """
    try:
        archive = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        raise error(f"{path} is not an .npz archive") from None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise error(f"{path} is not an .npz archive")
    return archive
