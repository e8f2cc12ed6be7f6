"""``read_npz``: every member of an archive read under one guard.

A file that is no ``.npz`` archive, a member that does not inflate and a
member that fails its CRC each end in the caller's format error naming
the file, also when the archive is read from bytes already in memory;
an ``OSError`` passes through.  ``json_object`` holds metadata to the
same rule.  The helpers here build such
files for the trace, model and CLI tests as well.
"""

from __future__ import annotations

import json
import pathlib
import zipfile

import numpy as np
import pytest

from repro.common.archive import json_object, read_npz, save_npz

#: Kinds of file that are no ``.npz`` archive (:func:`write_not_archive`).
NOT_ARCHIVES = ("text", "empty", "truncated", "npy")


def write_not_archive(path, kind, archive):
    """Write a file at *path* that is no ``.npz`` archive: a text file,
    an empty file, the first half of the *archive* file, or one ``.npy``
    array."""
    path = pathlib.Path(path)
    if kind == "text":
        path.write_text("# not an archive\n")
    elif kind == "empty":
        path.write_bytes(b"")
    elif kind == "truncated":
        data = pathlib.Path(archive).read_bytes()
        path.write_bytes(data[: len(data) // 2])
    else:
        with open(path, "wb") as stream:
            np.save(stream, np.arange(3))
    return path


def flip_member(source, path, name):
    """Copy the archive at *source* to *path* with 16 bytes flipped in
    the middle of member *name*'s stored data; returns *path*."""
    data = bytearray(pathlib.Path(source).read_bytes())
    with zipfile.ZipFile(source) as archive:
        info = archive.getinfo(name + ".npy")
    # The local header: 30 fixed bytes, then the name and extra field
    # whose lengths sit at offsets 26 and 28.
    header = info.header_offset
    start = header + 30 + int.from_bytes(
        data[header + 26:header + 28], "little"
    ) + int.from_bytes(data[header + 28:header + 30], "little")
    middle = start + max(info.compress_size - 16, 0) // 2
    for offset in range(middle, middle + min(16, info.compress_size)):
        data[offset] ^= 0xFF
    path = pathlib.Path(path)
    path.write_bytes(bytes(data))
    return path


def rewrite_meta(source, path, drop=(), **changes):
    """Copy the archive at *source* to *path* with its ``meta_json``
    metadata updated by *changes* and without the keys in *drop*;
    returns the path written."""
    members = read_npz(source, ValueError)
    meta = json.loads(bytes(members["meta_json"]).decode("utf-8"))
    meta.update(changes)
    for key in drop:
        del meta[key]
    members["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    return save_npz(path, members)


def replace_member(source, path, name, value):
    """Copy the archive at *source* to *path* with member *name* set to
    the array *value* (an in-place rewrite when they are one file);
    returns the path written."""
    members = read_npz(source, ValueError)
    members[name] = value
    return save_npz(path, members)


#: ``meta_json`` bytes that hold no JSON object, by kind, with the end
#: of the format error each gives.
BAD_METAS = {
    "not-utf8": (b"\xff\xfe{}", "is not JSON: 'utf-8' codec can't decode"),
    "not-json": (b"not json", "is not JSON: Expecting value"),
    "json-list": (b"[1, 2]", "is not a JSON object"),
}


def write_bad_meta(source, path, kind):
    """Copy the archive at *source* to *path* with the ``meta_json``
    bytes of :data:`BAD_METAS` *kind*; returns the path written."""
    raw, _message = BAD_METAS[kind]
    return replace_member(
        source, path, "meta_json", np.frombuffer(raw, dtype=np.uint8)
    )


class ArchiveError(ValueError):
    """The format error handed to :func:`read_npz` in these tests."""


ARRAYS = {
    "meta_json": np.frombuffer(b'{"format_version": 3}', dtype=np.uint8),
    "int64": np.arange(4096, dtype=np.int64) * 7919,
    "bool": np.arange(300) % 3 == 0,
}


@pytest.fixture
def archive(tmp_path):
    return save_npz(tmp_path / "good.npz", ARRAYS)


def test_reads_every_member_by_name(archive):
    members = read_npz(archive, ArchiveError)
    assert list(members) == list(ARRAYS)
    for key, value in ARRAYS.items():
        assert members[key].dtype == value.dtype
        assert np.array_equal(members[key], value)


def test_reads_given_bytes_and_names_the_path(tmp_path, archive):
    """Given the file's bytes, the archive is read from them, and an
    error still names the path, not an in-memory stream."""
    data = archive.read_bytes()
    path = tmp_path / "named.npz"
    members = read_npz(path, ArchiveError, data)
    assert list(members) == list(ARRAYS)
    assert np.array_equal(members["int64"], ARRAYS["int64"])
    with pytest.raises(ArchiveError) as excinfo:
        read_npz(path, ArchiveError, data[: len(data) // 2])
    assert str(excinfo.value) == f"{path} is not an .npz archive"
    flipped = flip_member(archive, tmp_path / "flipped.npz", "int64")
    with pytest.raises(ArchiveError) as excinfo:
        read_npz(path, ArchiveError, flipped.read_bytes())
    assert str(excinfo.value).startswith(f"{path}: member int64.npy ")
    assert not path.exists()


@pytest.mark.parametrize("kind", sorted(BAD_METAS))
def test_metadata_that_is_no_json_object_is_the_error(kind):
    raw, message = BAD_METAS[kind]
    with pytest.raises(ArchiveError) as excinfo:
        json_object(np.frombuffer(raw, np.uint8), "a.npz", ArchiveError)
    assert str(excinfo.value).startswith(f"a.npz: member meta_json {message}")


@pytest.mark.parametrize("kind", NOT_ARCHIVES)
def test_a_file_that_is_no_archive_is_the_error(tmp_path, archive, kind):
    path = write_not_archive(tmp_path / "bad.npz", kind, archive)
    with pytest.raises(ArchiveError) as excinfo:
        read_npz(path, ArchiveError)
    assert str(excinfo.value) == f"{path} is not an .npz archive"


@pytest.mark.parametrize("name", list(ARRAYS))
def test_a_flipped_member_is_the_error(tmp_path, archive, name):
    path = flip_member(archive, tmp_path / "flipped.npz", name)
    with pytest.raises(ArchiveError) as excinfo:
        read_npz(path, ArchiveError)
    message = str(excinfo.value)
    assert message.startswith(f"{path}: member {name}.npy is corrupt: ")
    assert "\n" not in message


def test_a_member_failing_its_crc_is_the_error(tmp_path):
    """A stored (uncompressed) member with bytes of its array data
    flipped still parses: only its CRC tells."""
    stored = tmp_path / "stored.npz"
    with zipfile.ZipFile(stored, "w") as out:
        with out.open("values.npy", "w") as member:
            np.lib.format.write_array(member, np.arange(64))
    path = flip_member(stored, tmp_path / "flipped.npz", "values")
    with pytest.raises(ArchiveError, match="Bad CRC-32") as excinfo:
        read_npz(path, ArchiveError)
    assert str(excinfo.value).startswith(f"{path}: member values.npy ")


def test_a_member_with_data_after_its_array_is_the_error(tmp_path):
    """A member read only as far as its array claims would never reach
    its CRC; data left after the array is refused."""
    path = tmp_path / "long.npz"
    with zipfile.ZipFile(path, "w") as out:
        with out.open("values.npy", "w") as member:
            np.lib.format.write_array(member, np.arange(8))
            member.write(b"tail")
    with pytest.raises(ArchiveError, match="data after the array"):
        read_npz(path, ArchiveError)


def test_a_member_that_is_no_array_is_the_error(tmp_path):
    path = tmp_path / "text-member.npz"
    with zipfile.ZipFile(path, "w") as out:
        out.writestr("notes.txt", "not an array")
    with pytest.raises(ArchiveError) as excinfo:
        read_npz(path, ArchiveError)
    assert str(excinfo.value).startswith(f"{path}: member notes.txt ")


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_an_os_error_passes_through(tmp_path, kind):
    path = tmp_path / "absent.npz"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(OSError):
        read_npz(path, ArchiveError)
