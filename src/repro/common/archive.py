"""Writing ``.npz`` archives at a fixed, fast deflate level; reading them.

``np.savez_compressed`` always deflates at zlib's default level (6),
which made deflation most of the time a store spends writing an
analysis.  The trace and model archives are written here instead, with
``zipfile`` and ``np.lib.format.write_array`` at level 1: the same
``.npz`` container, so ``np.load`` reads it unchanged.  Both writers
name their files by one rule, :func:`normalise_archive_path`, and both
loaders read their files through :func:`read_npz`, which reads every
member in full under one guard: a file that is no archive, a member
that does not inflate or parse, and a member that fails its CRC all end
in the loader's own format error naming the file.  Both decode their
metadata member with :func:`json_object`, under the same rule.
"""

from __future__ import annotations

import io
import json
import pathlib
import zipfile
import zlib
from typing import Callable, Dict, Mapping, Optional, Union

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


def read_npz(
    path: Union[str, pathlib.Path],
    error: Callable[[str], Exception],
    data: Optional[bytes] = None,
) -> Dict[str, np.ndarray]:
    """Every member of the ``.npz`` archive at *path*, read in full and
    keyed by its name without ``.npy``.

    Each member is read to its end, so its CRC is always checked.  Given
    *data*, the file's bytes already read, the archive is read from them
    instead of the file; every error still names *path*.

    Raises:
        error: the loader's format error, naming *path*, when the file
            is empty, truncated or no ``.npz`` archive at all, or when a
            member does not inflate, fails its CRC or is no ``.npy``
            array.
        OSError: the file cannot be read.
    """
    members: Dict[str, np.ndarray] = {}
    name = None
    try:
        with zipfile.ZipFile(
            path if data is None else io.BytesIO(data)
        ) as archive:
            for name in archive.namelist():
                with archive.open(name) as member:
                    array = np.lib.format.read_array(
                        member, allow_pickle=False
                    )
                    if member.read(1):
                        raise ValueError("data after the array")
                members[name.removesuffix(".npy")] = array
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        if name is None:
            raise error(f"{path} is not an .npz archive") from None
        raise error(f"{path}: member {name} is corrupt: {exc}") from None
    return members


def json_object(
    member: np.ndarray,
    path: Union[str, pathlib.Path],
    error: Callable[[str], Exception],
) -> dict:
    """The JSON object held, as UTF-8 bytes, by the metadata *member* of
    the archive at *path*.

    Raises:
        error: naming *path*, when the bytes are not UTF-8, not JSON, or
            JSON of anything but an object.
    """
    try:
        value = json.loads(bytes(member).decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is a ValueError too
        raise error(f"{path}: member meta_json is not JSON: {exc}") from None
    if not isinstance(value, dict):
        raise error(f"{path}: member meta_json is not a JSON object")
    return value
