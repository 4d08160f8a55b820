import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colflow.colstore import (
    FormatError,
    ValueType,
    open_dataset,
    write_dataset,
)
from colflow.colstore.format import (
    FOOTER_MAGIC,
    HEADER_SIZE,
    TAIL_SIZE,
    ChunkRef,
    ClusterInfo,
    decode_chunk,
    decode_footer,
    encode_footer,
)

from conftest import STANDARD_SCHEMA, standard_columns, vector_rows


def test_roundtrip_all_dtypes(tmp_path):
    n = 100
    rng = np.random.default_rng(7)
    lens = rng.integers(0, 5, n)
    schema = {
        "f": ValueType.F64,
        "i": ValueType.I64,
        "b": ValueType.BOOL,
        "vf": ValueType.VEC_F64,
        "vi": ValueType.VEC_I64,
    }
    cols = {
        "f": rng.normal(0, 1, n),
        "i": rng.integers(-(2**40), 2**40, n),
        "b": rng.random(n) < 0.5,
        "vf": [list(rng.normal(0, 1, k)) for k in lens],
        "vi": [list(rng.integers(-100, 100, k)) for k in lens],
    }
    path = str(tmp_path / "all.col")
    write_dataset(path, schema, cols, cluster_size=33)

    with open_dataset(path) as h:
        assert h.total_entries == n
        assert list(h.schema) == ["f", "i", "b", "vf", "vi"]
        got = {name: [] for name in cols}
        for batch in h.read_range(["f", "i", "b", "vf", "vi"], 0, n):
            got["f"].extend(batch.columns["f"].tolist())
            got["i"].extend(batch.columns["i"].tolist())
            got["b"].extend(batch.columns["b"].tolist())
            got["vf"].extend(vector_rows(batch.columns["vf"]))
            got["vi"].extend(vector_rows(batch.columns["vi"]))
    assert got["f"] == list(cols["f"])
    assert got["i"] == list(cols["i"])
    assert got["b"] == list(cols["b"])
    assert got["vf"] == [list(v) for v in cols["vf"]]
    assert got["vi"] == [list(v) for v in cols["vi"]]


def test_cluster_layout_and_trim(make_dataset):
    path = make_dataset(n=100, cluster_size=40)
    with open_dataset(path) as h:
        assert [(c.entry_start, c.entry_count) for c in h.clusters] == [
            (0, 40),
            (40, 40),
            (80, 20),
        ]
        batches = list(h.read_range(["MET_pt"], 35, 45))
        assert [(b.entry_start, b.entry_count) for b in batches] == [(35, 5), (40, 5)]
        full = standard_columns(100)["MET_pt"]
        merged = np.concatenate([b.columns["MET_pt"] for b in batches])
        assert merged.tolist() == list(full[35:45])


def test_open_reads_only_metadata(make_dataset, tmp_path):
    path = make_dataset(n=500, cluster_size=100)
    import os

    file_size = os.path.getsize(path)
    with open_dataset(path) as h:
        # header + tail + footer body, nothing else
        footer_body = h.account.bytes_read - HEADER_SIZE - TAIL_SIZE
        assert footer_body > 0
        assert h.account.bytes_read < file_size // 10
        assert h.account.chunk_bytes == 0
        assert h.account.read_calls == 3


def test_column_pruning_reads_exactly_requested_chunks(make_dataset):
    path = make_dataset(n=300, cluster_size=50)
    wanted = ["MET_pt", "nJet"]
    with open_dataset(path) as h:
        expected = h.column_chunk_bytes(wanted)
        for _ in h.read_range(wanted, 0, h.total_entries):
            pass
        assert h.account.chunk_bytes == expected
        all_bytes = h.column_chunk_bytes(list(h.schema))
        assert expected < all_bytes


def test_vector_slicing_mid_cluster(make_dataset):
    path = make_dataset(n=120, cluster_size=64)
    cols = standard_columns(120)
    with open_dataset(path) as h:
        got = []
        for b in h.read_range(["Jet_pt"], 17, 103):
            got.extend(vector_rows(b.columns["Jet_pt"]))
    assert got == [list(v) for v in cols["Jet_pt"][17:103]]


def test_empty_vectors_and_single_entry(tmp_path):
    schema = {"v": ValueType.VEC_F64}
    path = str(tmp_path / "e.col")
    write_dataset(path, schema, {"v": [[]]}, cluster_size=10)
    with open_dataset(path) as h:
        (batch,) = h.read_range(["v"], 0, 1)
        assert vector_rows(batch.columns["v"]) == [[]]


def test_range_validation(make_dataset):
    path = make_dataset(n=50)
    with open_dataset(path) as h:
        with pytest.raises(ValueError):
            list(h.read_range(["MET_pt"], -1, 10))
        with pytest.raises(ValueError):
            list(h.read_range(["MET_pt"], 0, 51))
        with pytest.raises(ValueError):
            list(h.read_range(["MET_pt"], 30, 20))
        with pytest.raises(KeyError):
            list(h.read_range(["nope"], 0, 10))
        assert list(h.read_range(["MET_pt"], 25, 25)) == []


def test_bad_magic_rejected(make_dataset):
    path = make_dataset(n=10)
    raw = bytearray(Path(path).read_bytes())
    raw[:4] = b"XXXX"
    Path(path).write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        open_dataset(path)


def test_truncated_footer_rejected(make_dataset):
    path = make_dataset(n=10)
    raw = Path(path).read_bytes()
    Path(path).write_bytes(raw[: len(raw) - TAIL_SIZE - 3])
    with pytest.raises(FormatError):
        open_dataset(path)


def test_footer_crc_mismatch_rejected(make_dataset):
    path = make_dataset(n=10)
    raw = bytearray(Path(path).read_bytes())
    (footer_offset,) = struct.unpack_from("<Q", raw, len(raw) - TAIL_SIZE)
    raw[footer_offset] ^= 0xFF
    Path(path).write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="CRC"):
        open_dataset(path)


def test_chunk_corruption_is_hard_error(make_dataset):
    path = make_dataset(n=100, cluster_size=100)
    with open_dataset(path) as h:
        ref = h.clusters[0].chunks[1]  # MET_pt chunk
    raw = bytearray(Path(path).read_bytes())
    raw[ref.offset + 4] ^= 0x01
    Path(path).write_bytes(bytes(raw))
    with open_dataset(path) as h:
        with pytest.raises(FormatError, match="chunk CRC"):
            list(h.read_range(["MET_pt"], 0, 100))
        # untouched column still reads fine
        list(h.read_range(["nJet"], 0, 100))


def test_footer_chunk_crcs_match_file_contents(make_dataset):
    path = make_dataset(n=100, cluster_size=40)
    raw = Path(path).read_bytes()
    with open_dataset(path) as h:
        for cl in h.clusters:
            for ref in cl.chunks:
                assert zlib.crc32(raw[ref.offset : ref.offset + ref.length]) == ref.crc32


@given(
    data=st.lists(
        st.tuples(
            st.floats(allow_nan=False, width=64),
            st.integers(-(2**62), 2**62),
            st.booleans(),
            st.lists(st.integers(-(2**31), 2**31), max_size=6),
        ),
        min_size=1,
        max_size=60,
    ),
    cluster_size=st.integers(1, 70),
)
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(tmp_path_factory, data, cluster_size):
    schema = {
        "f": ValueType.F64,
        "i": ValueType.I64,
        "b": ValueType.BOOL,
        "v": ValueType.VEC_I64,
    }
    cols = {
        "f": [row[0] for row in data],
        "i": [row[1] for row in data],
        "b": [row[2] for row in data],
        "v": [row[3] for row in data],
    }
    path = str(tmp_path_factory.mktemp("rt") / "p.col")
    write_dataset(path, schema, cols, cluster_size=cluster_size)
    with open_dataset(path) as h:
        assert h.total_entries == len(data)
        out_f, out_i, out_b, out_v = [], [], [], []
        for batch in h.read_range(["f", "i", "b", "v"], 0, len(data)):
            out_f.extend(batch.columns["f"].tolist())
            out_i.extend(batch.columns["i"].tolist())
            out_b.extend(batch.columns["b"].tolist())
            out_v.extend(vector_rows(batch.columns["v"]))
    assert out_f == cols["f"]
    assert out_i == cols["i"]
    assert out_b == cols["b"]
    assert out_v == cols["v"]


def _footer(raw: bytes) -> tuple[int, bytes]:
    """(footer_offset, footer body) of a file's bytes."""
    (footer_offset,) = struct.unpack_from("<Q", raw, len(raw) - TAIL_SIZE)
    return footer_offset, raw[footer_offset : len(raw) - TAIL_SIZE]


def _restamp(raw: bytes, body: bytes) -> bytes:
    """The file with its footer body replaced and a valid footer CRC."""
    footer_offset, _ = _footer(raw)
    return raw[:footer_offset] + body + struct.pack("<QI", footer_offset, zlib.crc32(body)) + FOOTER_MAGIC


def _read_everything(path: str) -> None:
    with open_dataset(path) as h:
        for _ in h.read_range(list(h.schema), 0, h.total_entries):
            pass


def test_dtype_codes_are_pinned(tmp_path):
    schema = {t.name: t for t in ValueType if t.storable}
    columns = {"F64": [1.5], "I64": [2], "BOOL": [True], "VEC_F64": [[1.0]], "VEC_I64": [[3]]}
    path = str(tmp_path / "codes.col")
    write_dataset(path, schema, columns)
    _, body = _footer(Path(path).read_bytes())
    codes, pos = [], 4
    for _ in range(struct.unpack_from("<I", body)[0]):
        (name_len,) = struct.unpack_from("<H", body, pos)
        pos += 2 + name_len
        codes.append(body[pos])
        pos += 1
    assert codes == [1, 2, 3, 4, 5]
    with open_dataset(path) as h:
        assert h.schema == schema


@pytest.mark.parametrize("code", [6, 7])
def test_footer_with_unstorable_or_unknown_code_rejected(tmp_path, code):
    path = str(tmp_path / "x.col")
    write_dataset(path, {"x": ValueType.F64}, {"x": [1.0]})
    raw = Path(path).read_bytes()
    _, body = _footer(raw)
    code_pos = 4 + 2 + 1  # n_columns, name_len, name "x"
    body = body[:code_pos] + bytes([code]) + body[code_pos + 1 :]
    Path(path).write_bytes(_restamp(raw, body))
    with pytest.raises(FormatError):
        open_dataset(path)


def test_vec_bool_column_not_writable(tmp_path):
    path = tmp_path / "vb.col"
    with pytest.raises(FormatError, match="non-storable"):
        write_dataset(str(path), {"m": ValueType.VEC_BOOL}, {"m": [[True]]})
    assert not path.exists()


def test_invalid_column_name_not_writable(tmp_path):
    with pytest.raises(FormatError, match="invalid column name"):
        write_dataset(str(tmp_path / "n.col"), {"2x": ValueType.F64}, {"2x": [1.0]})


@pytest.mark.parametrize(
    "name, values, message",
    [
        ("a" * 70_000, [1.0], "70000 bytes exceeds"),  # more bytes than the footer's u16 name length counts
        ("x", np.zeros((3, 2)), "one-dimensional"),  # refused mid-write, after the header
    ],
    ids=["overlong-name", "2-d-column"],
)
def test_a_failed_write_leaves_no_file(tmp_path, name, values, message):
    path = tmp_path / "f.col"
    with pytest.raises(FormatError, match=message):
        write_dataset(str(path), {name: ValueType.F64}, {name: values})
    assert not path.exists()


def test_misaligned_vector_values_rejected():
    raw = struct.pack("<I", 1) + b"\x00" * 7  # one entry of length 1, seven value bytes
    with pytest.raises(FormatError):
        decode_chunk(ValueType.VEC_F64, raw, 1)


def test_non_utf8_column_name_rejected():
    body = struct.pack("<IH", 1, 1) + b"\xff" + bytes([ValueType.F64]) + struct.pack("<QI", 0, 0)
    with pytest.raises(FormatError, match="UTF-8"):
        decode_footer(body)


def test_chunk_ref_outside_data_region_rejected(make_dataset):
    path = make_dataset(n=10, cluster_size=10)
    raw = Path(path).read_bytes()
    schema, total, clusters = decode_footer(_footer(raw)[1])
    (cl,) = clusters
    huge = ChunkRef(HEADER_SIZE, 2**40, cl.chunks[0].crc32)
    bad = ClusterInfo(cl.entry_start, cl.entry_count, (huge,) + cl.chunks[1:])
    Path(path).write_bytes(_restamp(raw, encode_footer(schema, total, (bad,))))
    with pytest.raises(FormatError, match="outside the data region"):
        open_dataset(path)


def _column_headed(n_columns: int, name: bytes, rest: bytes) -> bytes:
    return struct.pack("<IH", n_columns, len(name)) + name + rest


@given(
    st.one_of(
        st.binary(max_size=200),
        st.builds(_column_headed, st.integers(0, 3), st.binary(max_size=6), st.binary(max_size=80)),
    )
)
@settings(max_examples=300, deadline=None)
def test_decode_footer_raises_only_format_error(body):
    try:
        decode_footer(body)
    except FormatError:
        pass


@pytest.fixture(scope="module")
def small_file_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "base.col"
    write_dataset(str(path), STANDARD_SCHEMA, standard_columns(30, seed=5), cluster_size=12)
    return path.parent, path.read_bytes()


@given(
    edits=st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 255)), min_size=1, max_size=3)
)
@settings(max_examples=150, deadline=None)
def test_altered_footer_raises_only_format_error(small_file_bytes, edits):
    folder, raw = small_file_bytes
    body = bytearray(_footer(raw)[1])
    for pos, value in edits:
        body[pos % len(body)] = value
    path = str(folder / "altered.col")
    Path(path).write_bytes(_restamp(raw, bytes(body)))
    try:
        _read_everything(path)
    except FormatError:
        pass


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_crc_matching_chunk_refs_raise_only_format_error(small_file_bytes, data):
    """Chunk refs pointing anywhere in the file, each with its own CRC right."""
    folder, raw = small_file_bytes
    schema, total, clusters = decode_footer(_footer(raw)[1])
    codes = data.draw(st.lists(st.integers(1, 5), min_size=len(schema), max_size=len(schema)))
    schema = {name: ValueType(code) for name, code in zip(schema, codes)}
    spot = st.integers(0, len(raw) + 8)
    altered = []
    for cl in clusters:
        chunks = []
        for ch in cl.chunks:
            if data.draw(st.booleans()):
                offset, length = data.draw(spot), data.draw(spot)
                ch = ChunkRef(offset, length, zlib.crc32(raw[offset : offset + length]))
            chunks.append(ch)
        altered.append(ClusterInfo(cl.entry_start, cl.entry_count, tuple(chunks)))
    path = str(folder / "refs.col")
    Path(path).write_bytes(_restamp(raw, encode_footer(schema, total, tuple(altered))))
    try:
        _read_everything(path)
    except FormatError:
        pass
