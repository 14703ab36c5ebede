import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import paramedial
from paramedial.affine import AffineForm, Classification, ClassRecord, is_simple, materialize, table_to_text
from paramedial.cli import (
    CACHE_ENV,
    COPY_BLOCK_BYTES,
    JSON_CHUNK_ROWS,
    USAGE,
    _cache_load,
    _cache_path,
    _parse_args,
    _parse_group,
    form_from_dict,
    main,
    _render,
    record_to_dict,
    render_records,
)
from paramedial.enum_gl2 import enumerate_gl2
from reference import build_parser


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_by_order(capsys):
    code, out, _ = run(capsys, "count", "--order", "9")
    assert code == 0 and out.strip() == "50"


def test_count_cyclic_group(capsys):
    code, out, _ = run(capsys, "count", "--group", "cyclic", "2", "4")
    assert code == 0 and out.strip() == "32"


def test_count_elem2_group(capsys):
    code, out, _ = run(capsys, "count", "--group", "elem2", "5")
    assert code == 0 and out.strip() == "98"


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--order", "12", "--json")
    assert code == 0
    assert json.loads(out) == {"command": "count", "order": 12, "count": 55}


def test_count_unsupported_order(capsys):
    code, _, err = run(capsys, "count", "--order", "27")
    assert code == 2
    assert "Z_3 x Z_9" in err and "rank >= 3" in err


@pytest.mark.parametrize("order", ["2147483659", "1000000000000000003"])
def test_count_order_with_a_large_prime_exits_fast(capsys, order):
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--order", order)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def _count_exit(n: int) -> tuple[int, str]:
    """Exit code and stderr of ``count --order n``; a usage exit raises
    SystemExit(2)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(["count", "--order", str(n)])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@given(st.integers(min_value=-10, max_value=2**64))
@example(0)
@example(2**31 - 1)
@example(2**31 + 11)
@example(46349 * 46351)
@settings(max_examples=150)
def test_count_order_is_total(n):
    code, err = _count_exit(n)
    assert code in (0, 2)
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error:")
    else:
        assert err == ""


PRIMES = ["2", "3", "5", "7", "11", "13"]
BAD_TOKENS = ["0", "1", "4", "-3", "40", "2147483659", "1e3", "x", ""]  # none a valid p


def _groups(primes, exponents):
    """Group tokens: a valid group, or a spec that is never one."""
    valid = st.one_of(
        st.tuples(st.just("cyclic"), st.sampled_from(primes), st.sampled_from(exponents)),
        st.tuples(st.just("elem2"), st.sampled_from(primes)),
    ).map(list)
    return st.one_of(valid, st.lists(st.sampled_from(["cyclic", "elem2", "foo", *BAD_TOKENS]), max_size=4))


@st.composite
def _argvs(draw):
    """argv for count, enumerate or verify, with every flag, small valid groups
    (p <= 13, k <= 3; order <= 49 for --format tables) and malformed tokens."""
    command = draw(st.sampled_from(["count", "enumerate", "verify"]))
    argv = [command]
    if command == "count":
        target = draw(st.sampled_from(["order", "group", "both", "neither"]))
        if target in ("order", "both"):
            argv += ["--order", draw(st.sampled_from(["9", "25", "8", "1", "100", *BAD_TOKENS]))]
        if target in ("group", "both"):
            argv += ["--group", *draw(_groups(PRIMES, ["1", "2", "3"]))]
        argv += ["--json"] * draw(st.booleans())
        return argv
    if command == "enumerate":
        fmt = draw(st.sampled_from([None, "json", "csv", "tables", "xml"]))
        small = fmt == "tables"
        argv += ["--group", *draw(_groups(PRIMES[:4] if small else PRIMES, ["1", "2"] if small else ["1", "2", "3"]))]
        argv += ["--simple-only"] * draw(st.booleans())
        argv += [] if fmt is None else ["--format", fmt]
        for flag in ("--out", "--manifest"):
            argv += draw(st.sampled_from([[], [flag, "{tmp}/file"], [flag, "{tmp}/missing/file"]]))
        return argv
    argv += ["--group", *draw(_groups(PRIMES, ["1", "2", "3"]))]
    argv += draw(st.sampled_from([[], ["--level", "fast"], ["--level", "oracle"], ["--level", "full"]]))
    return argv


@given(_argvs())
@settings(max_examples=150, deadline=None)
def test_every_argv_exits_with_a_documented_code_and_no_traceback(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [token.format(tmp=tmp) for token in argv]
        with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # the usage exits
                code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), argv


def test_usage_error_exit_code(capsys):
    for argv in (
        [],
        ["count"],
        ["frobnicate"],
        ["count", "--group", "cyclic", "4", "1"],
        ["count", "--order", "0"],
        ["count", "--order", "-3"],
        ["count", "--order"],
        ["count", "--order", "x"],
        ["count", "--order", "9", "--group", "elem2", "3"],
        ["count", "--order", "9", "--json=yes"],
        ["count", "--order", "9", "extra"],
        ["count", "--order", "9", "--bogus"],
        ["count", "--order", "9", "--"],
        ["count", "--=9"],
        ["enumerate", "--group", "elem2", "3", "--format", "xml"],
        ["verify", "--group", "elem2", "3", "--level", "full"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert out == "" and len(lines) == 1 and lines[0].startswith("error:"), argv


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["-h"], ["enumerate", "--help"], ["count", "--order", "9", "--he"], ["verify", "-h", "--level", "full"]],
)
def test_help_prints_the_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr() == (USAGE, "")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["count", "--ord", "9"], "50\n"),
        (["count", "--order=9"], "50\n"),
        (["count", "--o=9", "--order", "25"], "144\n"),  # the last of a repeated option counts
        (["count", "--gr", "elem2", "5", "--j"], '{"command": "count", "count": 98, "group": {"kind": "elem2", "p": 5}}\n'),
        (["count", "--group=elem2", "--group", "cyclic", "2", "4"], "32\n"),
    ],
)
def test_options_may_be_abbreviated_joined_and_repeated(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected, "")


@pytest.mark.parametrize("flag", ["--out", "--manifest"])
def test_empty_path_is_a_usage_error(tmp_path, capsys, monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--group", "elem2", "3", flag, ""])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: {flag} needs a PATH, got ''\n")
    assert list(tmp_path.iterdir()) == []


# Tokens inserted into the grammar's argv: help, the one ambiguous prefix
# ("--" matches every option of a subcommand), unknown options, values like
# negative numbers, and words of the grammar in the wrong place.  "--",
# "-hh" and "-3x" are left out: argparse reads them differently across
# Python versions, or (-hh) as help, which _parse_args refuses.
PERTURBATIONS = [
    "-h", "--help", "--he", "--=9", "--=", "--bogus", "--orderx", "--simple_only", "-x", "-3", "-0", "-1.5", "-",
    "", "x y", "count", "enumerate", "elem2", "cyclic", "3", "oracle", "csv", "--order", "--group", "--json",
    "--format", "--out", "--level",
]


@st.composite
def _perturbed_argvs(draw):
    """An argv of the grammar with up to three edits: a token inserted, a
    token deleted (a missing value, option or subcommand), a long option
    abbreviated, an option joined to its value by "=", or a run repeated."""
    argv = [token.format(tmp="dir") for token in draw(_argvs())]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "delete", "abbreviate", "join", "repeat"]))
        if edit == "insert":
            argv.insert(i, draw(st.sampled_from(PERTURBATIONS)))
        elif i == len(argv):
            continue
        elif edit == "delete":
            del argv[i]
        elif edit == "abbreviate" and argv[i].startswith("--"):
            argv[i] = argv[i][: draw(st.integers(3, len(argv[i])))]
        elif edit == "join" and i + 1 < len(argv):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        elif edit == "repeat":
            argv += argv[i : i + draw(st.integers(1, 3))]
    return argv


def _parsed(parse, argv) -> tuple:
    """The values `parse` reads from argv (0 for help, 2 for a usage error), its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            values = vars(parse(argv))
        except SystemExit as exc:
            values = exc.code
    return values, out.getvalue(), err.getvalue()


@given(_perturbed_argvs())
@example(["count", "-h", "--=9"])  # the ambiguous prefix is refused before -h is read
@example(["--bogus", "count", "-h"])  # an unknown option is reported only at the end
@example(["count", "--order", "x", "-h"])  # a bad value is refused where it stands
@example(["count", "--group=elem2", "3"])  # "=" gives --group one value
@example(["count", "--group", "cyclic", "-3", "2"])
@example(["enumerate", "--group", "elem2", "3", "--out", "-1.5"])  # a value, as a negative number
@example(["enumerate", "--group", "elem2", "3", "--out", "-"])
@settings(max_examples=400, deadline=None)
def test_parse_args_reads_argv_as_argparse_does(argv):
    expected, _, _ = _parsed(build_parser().parse_args, argv)
    values, out, err = _parsed(_parse_args, argv)
    assert values == expected, argv
    if values == 0:
        assert (out, err) == (USAGE, "")
    elif values == 2:
        lines = err.splitlines()
        assert out == "" and len(lines) == 1 and lines[0].startswith("error:"), argv
    else:
        assert out == err == ""


@pytest.mark.parametrize("spec", [["cyclic", "4", "1"], ["elem2", "9"], ["foo", "3"]])
def test_bad_group_prints_one_error_line(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--group", *spec])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "spec",
    [["elem2", "1000000000000000003"], ["cyclic", "1000000000000000003", "1"], ["cyclic", "3", "100000000"]],
)
def test_huge_group_arguments_exit_fast(spec):
    src = os.path.dirname(os.path.dirname(paramedial.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "paramedial", "count", "--group", *spec],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert time.perf_counter() - start < 1.0
    assert result.returncode == 2 and result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--group", "elem2", "10007"],
        ["verify", "--group", "cyclic", "101", "4"],
        ["enumerate", "--group", "cyclic", "2", "30"],
    ],
)
def test_groups_over_the_record_bound_exit_fast(argv):
    # 4p^2 - 2 = 400 560 194, 207 100 804 and 2^31 classes, refused before any is built
    src = os.path.dirname(os.path.dirname(paramedial.__file__))
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = src
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "paramedial", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert time.perf_counter() - start < 1.0
    assert result.returncode == 3 and result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "bounded" in lines[0]


def test_enumerate_json_record_count(tmp_path, capsys):
    out_file = tmp_path / "classes.json"
    code, _, _ = run(capsys, "enumerate", "--group", "elem2", "3", "--out", str(out_file))
    assert code == 0
    records = json.loads(out_file.read_text())
    assert len(records) == 34
    assert records[0]["group"] == {"kind": "elem2", "p": 3}
    assert {"group", "phi", "psi", "c", "simple", "case"} == set(records[0])


def test_enumerate_simple_only(tmp_path, capsys):
    out_file = tmp_path / "simple.json"
    code, _, _ = run(
        capsys, "enumerate", "--group", "elem2", "3", "--simple-only", "--out", str(out_file)
    )
    assert code == 0
    records = json.loads(out_file.read_text())
    assert len(records) == 9
    assert all(r["simple"] for r in records)


def test_enumerate_tables_format(tmp_path, capsys):
    out_file = tmp_path / "tables.txt"
    code, _, _ = run(
        capsys, "enumerate", "--group", "cyclic", "3", "1", "--format", "tables",
        "--out", str(out_file),
    )
    assert code == 0
    text = out_file.read_text()
    assert text.count("order 3") == 5
    # each block is a latin square of order 3
    for block in text.strip().split("\n\n"):
        lines = [ln for ln in block.splitlines() if not ln.startswith("#")][1:]
        rows = [ln.split() for ln in lines]
        assert all(sorted(r) == ["0", "1", "2"] for r in rows)


def test_enumerate_tables_over_the_entry_bound_exits_fast(tmp_path):
    # cyclic 2 10: 2 048 tables of 1 024^2 entries, refused before any is built
    src = os.path.dirname(os.path.dirname(paramedial.__file__))
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = src
    out_file = tmp_path / "tables.txt"
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "paramedial", "enumerate", "--group", "cyclic", "2", "10",
         "--format", "tables", "--out", str(out_file)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert time.perf_counter() - start < 1.0
    assert result.returncode == 3 and result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "bounded" in lines[0]
    assert not out_file.exists()


@pytest.mark.parametrize("extra", [[], ["--simple-only"]], ids=["all", "simple-only"])
def test_enumerate_tables_bound_comes_before_any_record(extra):
    # elem2 509: 1 036 322 classes (516 635 simple) fit MAX_RECORDS, but each
    # table has 509^4 entries; the closed-form count refuses them unbuilt
    src = os.path.dirname(os.path.dirname(paramedial.__file__))
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = src
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "paramedial", "enumerate", "--group", "elem2", "509", *extra, "--format", "tables"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 1.0
    assert result.returncode == 3 and result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "bounded" in lines[0]


def test_enumerate_tables_of_no_simple_class(capsys):
    # Z_{2^16} has no simple class, so no table entry is due
    code, out, err = run(capsys, "enumerate", "--group", "cyclic", "2", "16", "--simple-only", "--format", "tables")
    assert code == 0 and out == "" and err == ""


@pytest.mark.parametrize("fmt,expected", [("json", "[]\n"), ("csv", "group,phi,psi,c,simple,case\n")])
def test_simple_only_over_the_record_bound_with_no_simple_class(capsys, fmt, expected):
    # Z_{2^20} has 2^21 classes, above MAX_RECORDS, but none is simple, so none is built
    code, out, err = run(capsys, "enumerate", "--group", "cyclic", "2", "20", "--simple-only", "--format", fmt)
    assert code == 0 and out == expected and err == ""


@pytest.mark.parametrize("fmt", ["json", "csv", "tables"])
def test_simple_only_builds_no_record_when_no_class_is_simple(tmp_path, capsys, monkeypatch, fmt):
    # Z_{2^5} has no simple class: the output is known before any record is built
    group = _parse_group(["cyclic", "2", "5"])
    expected = render_records(group, [row for row in group.classification().rows if row[4]], fmt)

    def refuse(modulus):
        raise AssertionError(f"enumerate_cyclic({modulus}) was called")

    monkeypatch.setattr("paramedial.enum_cyclic.enumerate_cyclic", refuse)
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    out = tmp_path / "out"
    argv = ["enumerate", "--group", "cyclic", "2", "5", "--simple-only", "--format", fmt, "--out", str(out)]
    assert run(capsys, *argv)[0] == 0
    assert out.read_bytes() == expected
    assert len(list((tmp_path / "cache").iterdir())) == 1  # the result is still cached


def test_enumerate_csv_layout(tmp_path, capsys):
    out_file = tmp_path / "classes.csv"
    code, _, _ = run(
        capsys, "enumerate", "--group", "cyclic", "3", "2", "--format", "csv",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "group,phi,psi,c,simple,case"
    assert len(lines) == 1 + 16


def test_enumerate_deterministic_and_cached(tmp_path, capsys, monkeypatch):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv(CACHE_ENV, str(cache_dir))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "enumerate", "--group", "elem2", "3", "--out", str(a))[0] == 0
    assert list(cache_dir.iterdir())  # cold run populated the cache
    assert run(capsys, "enumerate", "--group", "elem2", "3", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()

    # cold run without the cache is byte-identical as well
    monkeypatch.delenv(CACHE_ENV)
    c = tmp_path / "c.json"
    assert run(capsys, "enumerate", "--group", "elem2", "3", "--out", str(c))[0] == 0
    assert a.read_bytes() == c.read_bytes()


@pytest.mark.parametrize("corrupt", [b"garbage", None], ids=["garbage", "truncated"])
def test_corrupt_cache_entry_is_recomputed(tmp_path, capsys, monkeypatch, corrupt):
    argv = ("enumerate", "--group", "cyclic", "3", "1", "--format", "csv")
    code, uncached, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    assert run(capsys, *argv) == (0, uncached, "")
    (entry,) = tmp_path.iterdir()
    entry.write_bytes(corrupt if corrupt is not None else entry.read_bytes()[:-5])
    assert _cache_load(str(entry)) is None
    assert run(capsys, *argv) == (0, uncached, "")
    digest, fh = _cache_load(str(entry))
    with fh:
        assert fh.read() == uncached.encode()
    assert digest == hashlib.sha256(uncached.encode()).hexdigest()


def test_manifest_carries_digest(tmp_path, capsys):
    out_file = tmp_path / "out.json"
    manifest_file = tmp_path / "manifest.json"
    code, _, _ = run(
        capsys, "enumerate", "--group", "cyclic", "2", "3",
        "--out", str(out_file), "--manifest", str(manifest_file),
    )
    assert code == 0
    manifest = json.loads(manifest_file.read_text())
    digest = "sha256:" + hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert manifest["output_digest"] == digest
    assert manifest["command"] == "enumerate"
    assert "timestamp" in manifest


def test_enumerate_io_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "enumerate", "--group", "cyclic", "3", "1",
        "--out", str(tmp_path / "missing" / "x.json"),
    )
    assert code == 2
    assert "missing" in err


def test_unusable_cache_dir_prints_one_error_line(tmp_path):
    # the cache directory lies under a regular file, so storing the entry fails
    blocker = tmp_path / "file"
    blocker.write_text("")
    src = os.path.dirname(os.path.dirname(paramedial.__file__))
    env = {**os.environ, "PYTHONPATH": src, CACHE_ENV: str(blocker / "sub")}
    result = subprocess.run(
        [sys.executable, "-m", "paramedial", "enumerate", "--group", "cyclic", "3", "1",
         "--format", "csv"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 2 and result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(blocker / "sub") in lines[0]
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--order", "9"],
        ["verify", "--group", "elem2", "5"],
        ["enumerate", "--group", "elem2", "3"],
        ["enumerate", "--group", "cyclic", "3", "1"],  # its 0.6 KB stay in stdout's buffer until the flush
        ["enumerate", "--help"],
    ],
    ids=["count", "verify", "enumerate", "enumerate-small", "help"],
)
def test_closed_stdout_prints_one_error_line(argv, unbuffered):
    # the read end of the pipe is closed before the child starts, so its first write to stdout fails
    src = os.path.dirname(os.path.dirname(paramedial.__file__))
    env = {k: v for k, v in os.environ.items() if k not in (CACHE_ENV, "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "paramedial", *argv],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=30,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr


class _ShortWrites(io.RawIOBase):
    """A raw stream that takes at most 7 bytes per write, as a pipe may."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.data += bytes(b[:7])
        return min(len(b), 7)


def test_enumerate_writes_every_byte_to_a_stream_that_takes_part_of_each_write(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    out_file = tmp_path / "out.json"
    assert run(capsys, "enumerate", "--group", "elem2", "3", "--out", str(out_file))[0] == 0
    raw = _ShortWrites()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
    assert main(["enumerate", "--group", "elem2", "3"]) == 0
    assert bytes(raw.data) == out_file.read_bytes()


def test_failed_cache_store_leaves_no_temporary_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    cache_dir = tmp_path / "cache"
    monkeypatch.setenv(CACHE_ENV, str(cache_dir))
    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = run(capsys, "enumerate", "--group", "cyclic", "3", "1")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot use cache entry") and "No space" in lines[0]
    assert list(cache_dir.iterdir()) == []


def test_json_round_trip():
    records = enumerate_gl2(3).records()
    for rec in records:
        rebuilt = form_from_dict(json.loads(json.dumps(record_to_dict(rec))))
        assert rebuilt == rec.form
        assert is_simple(rebuilt.group, rebuilt.phi, rebuilt.psi) == rec.simple


@pytest.mark.parametrize(
    "record",
    [
        {"group": {"kind": "cyclic", "p": 3, "k": 2}, "phi": [[2, 5]], "psi": [[7], [1]], "c": [4, 99]},
        {"group": {"kind": "elem2", "p": 3}, "phi": [[1, 0, 0], [1]], "psi": [[1, 0], [0, 1]], "c": [0, 0]},
        {"group": {"kind": "elem3", "p": 3}, "phi": [[1, 0], [0, 1]], "psi": [[1, 0], [0, 1]], "c": [0, 0]},
        {"group": {"kind": "cyclic", "p": 3, "k": 1}, "phi": [[1]], "psi": [[1]]},
        {"group": {"kind": "cyclic", "p": 3}, "phi": [[1]], "psi": [[1]], "c": [0]},
        [["group", "cyclic"]],
        {"group": "elem2 3", "phi": [[1, 0], [0, 1]], "psi": [[1, 0], [0, 1]], "c": [0, 0]},
        {"group": {"kind": "cyclic", "p": 3, "k": 1}, "phi": [[True]], "psi": [[1]], "c": [0]},
        {"group": {"kind": "elem2", "p": 3}, "phi": [[1, 0], [0, 1]], "psi": [[1, 0], [0, 1]], "c": [0, False]},
        {"group": {"kind": "elem2", "p": 3.0}, "phi": [[1, 0], [0, 1]], "psi": [[1, 0], [0, 1]], "c": [0, 0]},
        {"group": {"kind": "cyclic", "p": 3, "k": 1}, "phi": [[1.0]], "psi": [[1]], "c": [0]},
    ],
    ids=[
        "cyclic-wide-rows", "elem2-ragged-rows", "unknown-kind", "missing-c", "missing-k", "record-not-dict",
        "group-not-dict", "bool-phi", "bool-c", "float-p", "float-phi",
    ],
)
def test_form_from_dict_rejects_malformed_records(record):
    with pytest.raises(ValueError):
        form_from_dict(record)


def test_verify_fast_cyclic(capsys):
    code, out, _ = run(capsys, "verify", "--group", "cyclic", "5", "2", "--level", "fast")
    assert code == 0
    assert "closed form 46" in out
    assert "all checks passed" in out


def test_verify_oracle_elem2(capsys):
    code, out, _ = run(capsys, "verify", "--group", "elem2", "2", "--level", "oracle")
    assert code == 0
    assert "oracle orbit count equals 7" in out
    assert "ok: simple class count equals 3" in out


def test_verify_oracle_bound(capsys):
    # refused before any check runs: no ok: line precedes the refusal.  Both are
    # the oracle's closed-form bound |Aut(G)| * |G| <= 2^19; cyclic 101 2 ran out
    # of memory on an 8 GB host when it was not refused.
    for group in (["elem2", "11"], ["cyclic", "101", "2"]):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--group", *group, "--level", "oracle")
        assert time.perf_counter() - start < 1, group
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "exceeds the oracle's bound" in err


NUMPY_BLOCKED_RUN = """
import sys
sys.modules["numpy"] = None  # from here on, importing numpy raises ImportError
import paramedial.cli
from paramedial.affine import is_paramedial, materialize
from paramedial.enum_cyclic import enumerate_cyclic
from paramedial.modring import Modulus

out = sys.argv[1]
for argv in (
    ["count", "--order", "9"],
    *(["enumerate", "--group", "elem2", "3", "--format", f, "--out", f"{out}/elem2-3.{f}"]
      for f in ("json", "csv", "tables")),
    ["verify", "--group", "elem2", "3", "--level", "oracle"],
):
    assert paramedial.cli.main(argv) == 0, argv
assert all(is_paramedial(materialize(f)) for f in enumerate_cyclic(Modulus(7, 2)).forms)
"""


def test_cli_import_leaves_numpy_unloaded(tmp_path):
    # The runtime needs no numpy: the commands and the paramedial test run
    # with it blocked.  Only the tests' reference satisfies_paramedial_identity uses it.
    src = os.path.dirname(os.path.dirname(paramedial.__file__))
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = src
    argv = [sys.executable, "-c", NUMPY_BLOCKED_RUN, str(tmp_path)]
    result = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "all checks passed" in result.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["elem2-3.csv", "elem2-3.json", "elem2-3.tables"]


STARTUP_RUN = """
import os
import sys
import paramedial.cli

for argv in (["count", "--order", "9"], ["verify", "--group", "elem2", "3"]):
    assert paramedial.cli.main(argv) == 0, argv
lazy = ("dataclasses", "inspect", "hashlib", "datetime", "csv", "tempfile", "json", "typing")
print("loaded:", [m for m in lazy if m in sys.modules])

cache, out = sys.argv[1:]
os.environ["PARAMEDIAL_CACHE_DIR"] = cache
argv = ["enumerate", "--group", "elem2", "3", "--out", out]
assert paramedial.cli.main(argv) == 0
paramedial.enum_gl2.enumerate_gl2 = None  # a second run that missed the cache would fail
assert paramedial.cli.main(argv) == 0
print("cached:", os.listdir(cache))
"""


def test_short_requests_leave_unused_stdlib_unloaded(tmp_path):
    # count and verify use no cache, manifest, csv or json output, so they
    # load none of the modules those paths import, and nothing loads
    # dataclasses or typing.  -S
    # keeps out whatever the .pth files of site-packages happen to import.
    src = os.path.dirname(os.path.dirname(paramedial.__file__))
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = src
    argv = [sys.executable, "-S", "-c", STARTUP_RUN, str(tmp_path / "cache"), str(tmp_path / "out.json")]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[-2] == "loaded: []"
    # the enumerate entry is still named by the sha256 of its canonical request
    params = {"group": {"kind": "elem2", "p": 3}, "simple_only": False, "format": "json"}
    canon = json.dumps({"command": "enumerate", "params": params, "version": paramedial.__version__}, sort_keys=True)
    assert lines[-1] == f"cached: ['{hashlib.sha256(canon.encode()).hexdigest()}.out']"


STARTUP_GUARD_RUN = """
import os
import sys

bare = set(sys.modules)
import paramedial.cli

def added(argv):
    before = set(sys.modules)
    assert paramedial.cli.main(argv) == 0, argv
    return " ".join(sorted(set(sys.modules) - before))

os.environ["PARAMEDIAL_CACHE_DIR"], out = sys.argv[1:]
requests = (["count", "--order", "9"], ["count", "--order", "9", "--json"],
            ["verify", "--group", "elem2", "3", "--level", "fast"], ["enumerate", "--group", "elem2", "3", "--out", out])
print(*map(added, requests), " ".join(set(sys.modules) - bare), sep="\\n")  # after the requests' own output
"""


def test_requests_load_no_parser_or_json_module(tmp_path, capsys, monkeypatch):
    # Start-up by module count, not by timing: count, count --json, verify and
    # an enumerate cache hit load neither argparse (with gettext and locale)
    # nor json. count, count --json and verify load nothing beyond the import
    # of paramedial.cli; the hit loads hashlib, to check the entry's sha256,
    # and nothing else.
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    assert run(capsys, "enumerate", "--group", "elem2", "3")[0] == 0  # the entry the child hits
    src = os.path.dirname(os.path.dirname(paramedial.__file__))
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = src

    def child(code: str, *args: str) -> list[str]:
        result = subprocess.run([sys.executable, "-S", "-c", code, *args], env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()

    out = tmp_path / "out.json"
    *_, count, count_json, verify, hit, loaded = child(STARTUP_GUARD_RUN, str(tmp_path / "cache"), str(out))
    assert out.read_bytes() == run(capsys, "enumerate", "--group", "elem2", "3")[1].encode()
    (with_hashlib,) = child("import sys; bare = set(sys.modules); import hashlib; print(*set(sys.modules) - bare)")
    assert count == count_json == verify == ""
    assert "hashlib" in hit.split() and set(hit.split()) <= set(with_hashlib.split())
    assert not {"argparse", "gettext", "locale", "json"} & set(loaded.split())


@pytest.mark.parametrize(
    "spec, name, params",
    [
        (["cyclic", "3", "2"], "cyclic(3,2)", {"kind": "cyclic", "p": 3, "k": 2}),
        (["cyclic", "101", "1"], "cyclic(101,1)", {"kind": "cyclic", "p": 101, "k": 1}),
        (["elem2", "2"], "elem2(2)", {"kind": "elem2", "p": 2}),
        (["elem2", "5"], "elem2(5)", {"kind": "elem2", "p": 5}),
    ],
)
def test_group_names_come_from_params(spec, name, params):
    group = _parse_group(spec)
    assert group.params() == params and group.describe() == name


def test_cache_key_is_the_json_of_the_request(monkeypatch):
    # _cache_path writes json.dumps(..., sort_keys=True) itself, so entries keep their names
    monkeypatch.setenv(CACHE_ENV, "cache")
    for spec in (["cyclic", "3", "2"], ["cyclic", "101", "1"], ["elem2", "5"]):
        for fmt in ("json", "csv", "tables"):
            for simple_only in (False, True):
                params = {"group": _parse_group(spec).params(), "simple_only": simple_only, "format": fmt}
                request = {"command": "enumerate", "params": params, "version": paramedial.__version__}
                digest = hashlib.sha256(json.dumps(request, sort_keys=True).encode()).hexdigest()
                assert _cache_path("enumerate", params) == os.path.join("cache", f"{digest}.out")


def test_cli_import_loads_every_layer_module():
    # perfbench's tracer looks each layer module up in sys.modules after
    # importing paramedial.cli, so the import must load all six
    code = "import sys, paramedial.cli; print(*sys.modules)"
    src = os.path.dirname(os.path.dirname(paramedial.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    layers = ["affine", "cli", "enum_cyclic", "enum_gl2", "modring", "oracle"]
    assert set(out.stdout.split()) >= {f"paramedial.{m}" for m in layers}


def _reference_fields(rec) -> list[str]:
    """group, phi, psi, c, simple and case of a record, as csv and table headers show them."""
    d = record_to_dict(rec)
    return [
        rec.form.group.describe(),
        ";".join(",".join(str(v) for v in row) for row in d["phi"]),
        ";".join(",".join(str(v) for v in row) for row in d["psi"]),
        ",".join(str(v) for v in d["c"]),
        "true" if rec.simple else "false",
        rec.case,
    ]


def _reference_render(records, fmt: str) -> bytes:
    """The json, csv and tables renderings through record_to_dict, the stdlib
    encoders and one materialized table per record."""
    if fmt == "json":
        payload = [record_to_dict(r) for r in records]
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    if fmt == "tables":
        parts = []
        for rec in records:
            name, phi, psi, c, simple, case = _reference_fields(rec)
            header = f"# group={name} case={case} simple={simple} phi={phi} psi={psi} c={c}"
            parts.append(header + "\n" + table_to_text(materialize(rec.form)))
        return "\n".join(parts).encode()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "phi", "psi", "c", "simple", "case"])
    writer.writerows(_reference_fields(rec) for rec in records)
    return buf.getvalue().encode()


def _rows(*spec, stop=None):
    group = _parse_group(list(spec))
    return group, group.classification().rows[:stop]


RENDER_INPUTS = {
    "elem2-2": lambda: _rows("elem2", "2"),
    "elem2-3": lambda: _rows("elem2", "3"),
    "elem2-5": lambda: _rows("elem2", "5"),
    "elem2-17": lambda: _rows("elem2", "17"),
    "cyclic-2-1": lambda: _rows("cyclic", "2", "1"),
    "cyclic-2-10": lambda: _rows("cyclic", "2", "10"),
    "cyclic-3-6": lambda: _rows("cyclic", "3", "6"),
    "cyclic-101-2": lambda: _rows("cyclic", "101", "2"),
    # chunk boundaries: no row, one row, one row short of a chunk (a csv
    # chunk, whose first holds the header too), one chunk, one row past it,
    # and exactly two chunks
    "empty": lambda: _rows("cyclic", "3", "2", stop=0),
    "one-row": lambda: _rows("elem2", "3", stop=1),
    "chunk-minus-one": lambda: _rows("elem2", "37", stop=JSON_CHUNK_ROWS - 1),
    "one-chunk": lambda: _rows("cyclic", "101", "2", stop=JSON_CHUNK_ROWS),
    "chunk-plus-one": lambda: _rows("elem2", "37", stop=JSON_CHUNK_ROWS + 1),
    "two-chunks": lambda: _rows("cyclic", "101", "2", stop=2 * JSON_CHUNK_ROWS),
}
TABLES_MAX_CHECKED = 10**6  # table entries: the tables render is checked where it is small


@pytest.mark.parametrize("name", RENDER_INPUTS)
def test_render_records_matches_the_reference_encoders(name):
    group, rows = RENDER_INPUTS[name]()
    records = [ClassRecord(AffineForm(group, phi, psi, c), case, simple) for phi, psi, c, case, simple in rows]
    for fmt in ("json", "csv", "tables"):
        if fmt == "tables" and len(rows) * group.order**2 > TABLES_MAX_CHECKED:
            continue
        expected = _reference_render(records, fmt)
        assert render_records(group, rows, fmt) == expected, fmt
        assert b"".join(_render(group, iter(rows), fmt)) == expected, fmt  # from a one-pass stream


def test_chunk_boundary_inputs_cross_a_chunk():
    # cyclic 101 2 has 20 302 rows: more than one chunk, and not a multiple of it
    names = ("empty", "one-row", "chunk-minus-one", "one-chunk", "chunk-plus-one", "two-chunks", "cyclic-101-2")
    sizes = {name: len(RENDER_INPUTS[name]()[1]) for name in names}
    assert [sizes[name] for name in names[:-1]] == [0, 1, *(JSON_CHUNK_ROWS + d for d in (-1, 0, 1, JSON_CHUNK_ROWS))]
    assert sizes["cyclic-101-2"] > JSON_CHUNK_ROWS and sizes["cyclic-101-2"] % JSON_CHUNK_ROWS != 0
    tables = [name for name in RENDER_INPUTS if len(RENDER_INPUTS[name]()[1]) * 81 <= TABLES_MAX_CHECKED]
    assert {"empty", "one-row", "elem2-3", "elem2-5"} <= set(tables)


@pytest.mark.parametrize("fmt, per_chunk", [("json", JSON_CHUNK_ROWS), ("csv", JSON_CHUNK_ROWS), ("tables", 1)])
def test_render_draws_one_chunk_of_rows_at_a_time(fmt, per_chunk):
    group, rows = _rows("elem2", "11") if fmt != "tables" else _rows("elem2", "3")
    drawn = 0

    def counted():
        nonlocal drawn
        for row in rows:
            drawn += 1
            yield row

    seen = []  # rows drawn when each chunk comes out
    chunks = []
    for chunk in _render(group, counted(), fmt):
        seen.append(drawn)
        chunks.append(chunk)
    assert b"".join(chunks) == render_records(group, rows, fmt)
    assert max(b - a for a, b in zip([0, *seen], seen)) <= per_chunk and seen[-1] == len(rows)
    lines = len(rows) + (fmt == "csv")  # csv: the header rides in the first chunk
    assert len(chunks) == -(-lines // per_chunk) + (fmt == "json")  # json: the closing bracket last


def _enumerate_env(cache_dir=None) -> dict:
    src = os.path.dirname(os.path.dirname(paramedial.__file__))
    env = {k: v for k, v in os.environ.items() if k not in (CACHE_ENV, "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = src
    if cache_dir is not None:
        env[CACHE_ENV] = str(cache_dir)
    return env


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_reader_closing_the_pipe_after_the_first_chunk(tmp_path, capsys, monkeypatch, cached):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    argv = ["enumerate", "--group", "cyclic", "101", "2"]
    code, expected, _ = run(capsys, *argv)
    assert code == 0 and len(expected) > 16 * COPY_BLOCK_BYTES // 4  # well beyond a pipe's buffer
    cache_dir = tmp_path / "cache"
    proc = subprocess.Popen(
        [sys.executable, "-m", "paramedial", *argv],
        env=_enumerate_env(cache_dir if cached else None), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        first = proc.stdout.read(1000)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.stderr.close()
    assert first == expected[:1000].encode()
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write <stdout>")
    assert "Traceback" not in err and "Exception ignored" not in err
    if cached:  # the entry was stored whole before the first byte went out, and no temporary file is left
        (entry,) = cache_dir.iterdir()
        digest, fh = _cache_load(str(entry))
        with fh:
            assert fh.read() == expected.encode()


@pytest.mark.parametrize(
    "argv",
    [("--group", "cyclic", "101", "2"), ("--group", "elem2", "3", "--format", "tables")],
    ids=["json-over-several-blocks", "tables"],
)
def test_cache_miss_hit_and_corrupt_entry_give_the_uncached_bytes(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    code, uncached, _ = run(capsys, "enumerate", *argv)
    assert code == 0
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    assert run(capsys, "enumerate", *argv) == (0, uncached, "")  # miss
    (entry,) = tmp_path.iterdir()
    stored = entry.read_bytes()
    assert stored == hashlib.sha256(uncached.encode()).hexdigest().encode() + b"\n" + uncached.encode()
    assert run(capsys, "enumerate", *argv) == (0, uncached, "")  # hit
    middle = len(stored) // 2  # past the first block of the json entry
    entry.write_bytes(stored[:middle] + bytes([stored[middle] ^ 1]) + stored[middle + 1 :])
    assert run(capsys, "enumerate", *argv) == (0, uncached, "")  # corrupt: refused whole, recomputed
    assert entry.read_bytes() == stored and [p.name for p in tmp_path.iterdir()] == [entry.name]


@pytest.mark.parametrize("cache", ["none", "miss", "hit"])
def test_out_and_manifest_carry_the_streamed_digest(tmp_path, monkeypatch, capsys, cache):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    if cache != "none":
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    argv = ["enumerate", "--group", "cyclic", "101", "2", "--format", "csv"]
    if cache == "hit":
        assert run(capsys, *argv)[0] == 0
    out_file, manifest_file = tmp_path / "out.csv", tmp_path / "manifest.json"
    assert run(capsys, *argv, "--out", str(out_file), "--manifest", str(manifest_file)) == (0, "", "")
    manifest = json.loads(manifest_file.read_text())
    assert manifest["output_digest"] == "sha256:" + hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert out_file.read_bytes() == render_records(*_rows("cyclic", "101", "2"), "csv")


class _WriteSizes(io.RawIOBase):
    """A raw stream that records the size of every write it takes."""

    def __init__(self):
        self.data = bytearray()
        self.sizes = []

    def writable(self):
        return True

    def write(self, b):
        self.data += b
        self.sizes.append(len(b))
        return len(b)


@pytest.mark.parametrize("cache", ["none", "miss", "hit"])
@pytest.mark.parametrize(
    "argv",
    [
        ("--group", "cyclic", "101", "2"),
        ("--group", "elem2", "101", "--format", "csv", "--simple-only"),
        ("--group", "elem2", "7", "--format", "tables"),
    ],
    ids=["json", "csv-simple-only", "tables"],
)
def test_enumerate_holds_neither_the_rows_nor_the_output(tmp_path, capsys, monkeypatch, argv, cache):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    code, expected, _ = run(capsys, "enumerate", *argv)
    assert code == 0
    if cache != "none":
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    if cache == "hit":
        assert run(capsys, "enumerate", *argv)[0] == 0

    def refuse(*args):
        raise AssertionError("the whole row tuple or the whole output was built")

    monkeypatch.setattr(Classification, "rows", property(refuse))
    monkeypatch.setattr(paramedial.cli, "render_records", refuse)
    raw = _WriteSizes()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
    assert main(["enumerate", *argv]) == 0
    assert bytes(raw.data) == expected.encode()
    assert max(raw.sizes) <= COPY_BLOCK_BYTES < len(expected)  # each output spans several writes
