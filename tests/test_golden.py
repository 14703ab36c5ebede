"""Byte-for-byte pins of `enumerate` output in every format, and of the
stdout of `verify` at both levels.

Each value is the first 16 hex digits of the sha256 of the file written by
`paramedial enumerate --group ... --format F --out PATH`, or of the text
`paramedial verify --group ... --level L` prints.  A change that alters
any of them alters the public output and must say so.
"""

import hashlib

import pytest

from paramedial.cli import main

GOLDEN = {
    ("elem2", "2"): {"json": "54dd3ed9f1da81cd", "csv": "c948ca9a44685891", "tables": "dcf300bc26e1014f"},
    ("elem2", "3"): {"json": "4beb0985b19e15b7", "csv": "856c6396efffdaea", "tables": "6e525e86d8f94723"},
    ("elem2", "5"): {"json": "b7447c63d59583fd", "csv": "8224a035d0ebfd0b", "tables": "3d0c86b6d8d0b7c7"},
    ("elem2", "7"): {"json": "5d03dacf77f8384c", "csv": "c14015033d2ae659", "tables": "085ee76d347d51da"},
    ("cyclic", "2", "4"): {"json": "df75ddad016859e1", "csv": "61e7fca42486ed7f", "tables": "7e59a75098cae5ac"},
    ("cyclic", "3", "2"): {"json": "2ad2938746b3ed59", "csv": "8499ad530905b8d1", "tables": "a72b032740d62107"},
    ("cyclic", "5", "3"): {"json": "051154c789c39c1c", "csv": "100d729445981a61", "tables": "1b04bed8293ec9ee"},
}

# `--simple-only`.  cyclic 2 4 and cyclic 3 2 have no simple class: their
# json is exactly "[]\n", whose digest is 37517e5f3dc66819.
GOLDEN_SIMPLE_ONLY = {
    ("elem2", "3"): {"json": "939c2fad3a14bf2f", "csv": "040dc6988e0696d2"},
    ("cyclic", "3", "1"): {"json": "aac6615ff786f0f7", "csv": "21f1a77b3792fe83"},
    ("cyclic", "2", "4"): {"json": "37517e5f3dc66819", "csv": "04c2cf7f08453249"},
    ("cyclic", "3", "2"): {"json": "37517e5f3dc66819"},
}

CASES = [
    pytest.param(group, fmt, flags, digest, id="-".join((*group, fmt, *flags)))
    for golden, flags in ((GOLDEN, ()), (GOLDEN_SIMPLE_ONLY, ("--simple-only",)))
    for group, by_fmt in golden.items()
    for fmt, digest in by_fmt.items()
]


@pytest.mark.parametrize("group,fmt,flags,digest", CASES)
def test_enumerate_output_digest(tmp_path, monkeypatch, group, fmt, flags, digest):
    monkeypatch.delenv("PARAMEDIAL_CACHE_DIR", raising=False)
    out = tmp_path / f"out.{fmt}"
    assert main(["enumerate", "--group", *group, "--format", fmt, *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


# Pinned when the oracle behind `verify` was `oracle.classify_triples`; the
# two-stage classifier that replaced it must print the same report.
GOLDEN_VERIFY_ORACLE = {
    ("elem2", "2"): "167139649af211fd",
    ("elem2", "3"): "feed702194d174b8",
    ("elem2", "5"): "b1ec43a361171ef7",
    ("cyclic", "3", "1"): "3558d50b65b8a897",
    ("cyclic", "3", "2"): "09a7672729b401cd",
    ("cyclic", "3", "3"): "0eb601d380a15c6d",
    ("cyclic", "2", "4"): "df2b95fb607abd0b",
    ("cyclic", "5", "2"): "87e0aa212175fd13",
    # Above order 27, within the oracle's bound |Aut(G)| * |G| <= 2^19; pinned
    # when the order cap gave way to that bound.  Each report is the fast one
    # with the two oracle lines before "all checks passed".
    ("elem2", "7"): "f12dde06c8f0ba20",
    ("cyclic", "3", "5"): "ce3b79f2309d7a08",
}


@pytest.mark.parametrize(
    "group,digest", [pytest.param(g, d, id="-".join(g)) for g, d in GOLDEN_VERIFY_ORACLE.items()]
)
def test_verify_oracle_output_digest(capsys, group, digest):
    assert main(["verify", "--group", *group, "--level", "oracle"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


# Pinned when verify still rebuilt every row as a checked AffineForm; the
# checks on the raw rows that replaced it must print the same report.  Both
# kinds, the p = 2 paths (elem2 2 by direct search, cyclic 2 k) and large groups.
GOLDEN_VERIFY_FAST = {
    ("elem2", "2"): "17dfb355f35072ba",
    ("elem2", "3"): "b2151c5551d0a3a1",
    ("elem2", "5"): "ea73c3cab82aee6e",
    ("elem2", "7"): "bffb953a37865295",
    ("elem2", "31"): "6a81ae3043c14236",
    ("cyclic", "3", "2"): "e3db530b3213c01a",
    ("cyclic", "5", "2"): "8c4ba72b4a8fbfc6",
    ("cyclic", "2", "4"): "dd9f66db05ffdac0",
    ("cyclic", "7", "1"): "edd413485f4bae1d",
    ("cyclic", "2", "10"): "ae7bde74cb276f9d",
    ("cyclic", "101", "2"): "6503f419d292ad2e",
}


@pytest.mark.parametrize("group,digest", [pytest.param(g, d, id="-".join(g)) for g, d in GOLDEN_VERIFY_FAST.items()])
def test_verify_fast_output_digest(capsys, group, digest):
    assert main(["verify", "--group", *group, "--level", "fast"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
