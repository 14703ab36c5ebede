import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import paramedial
from paramedial.affine import AffineForm, ClassRecord, is_simple
from paramedial.cli import (
    CACHE_ENV,
    JSON_CHUNK_ROWS,
    _cache_load,
    _parse_group,
    build_parser,
    form_from_dict,
    main,
    record_to_dict,
    render_records,
)
from paramedial.enum_gl2 import enumerate_gl2


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
    SystemExit, as argparse's own do."""
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


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count"])
    assert exc.value.code == 2
    for argv in (
        ["count", "--group", "cyclic", "4", "1"],
        ["count", "--order", "0"],
        ["count", "--order", "-3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


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


@pytest.mark.parametrize("fmt", ["json", "csv", "tables"])
def test_simple_only_builds_no_record_when_no_class_is_simple(tmp_path, capsys, monkeypatch, fmt):
    # Z_{2^5} has no simple class: the output is known before any record is built
    group = _parse_group(["cyclic", "2", "5"], build_parser())
    expected = render_records(group, [row for row in group.rows() if row[4]], fmt)

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
    assert _cache_load(str(entry)) == uncached.encode()


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
    [["count", "--order", "9"], ["verify", "--group", "elem2", "5"], ["enumerate", "--group", "elem2", "3"]],
    ids=lambda argv: argv[0],
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
    # refused before any check runs: no ok: line precedes the refusal
    code, out, err = run(capsys, "verify", "--group", "elem2", "7", "--level", "oracle")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and "bounded" in err


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
    # with it blocked.  Only oracle.satisfies_paramedial_identity uses it.
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
    group = _parse_group(spec, build_parser())
    assert group.params() == params and group.describe() == name


def test_cli_import_loads_every_layer_module():
    # perfbench's tracer looks each layer module up in sys.modules after
    # importing paramedial.cli, so the import must load all six
    code = "import sys, paramedial.cli; print(*sys.modules)"
    src = os.path.dirname(os.path.dirname(paramedial.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    layers = ["affine", "cli", "enum_cyclic", "enum_gl2", "modring", "oracle"]
    assert set(out.stdout.split()) >= {f"paramedial.{m}" for m in layers}


def _reference_render(records, fmt: str) -> bytes:
    """The json and csv renderings through record_to_dict and the stdlib encoders."""
    if fmt == "json":
        payload = [record_to_dict(r) for r in records]
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "phi", "psi", "c", "simple", "case"])
    for rec in records:
        d = record_to_dict(rec)
        writer.writerow(
            [
                rec.form.group.describe(),
                ";".join(",".join(str(v) for v in row) for row in d["phi"]),
                ";".join(",".join(str(v) for v in row) for row in d["psi"]),
                ",".join(str(v) for v in d["c"]),
                "true" if rec.simple else "false",
                rec.case,
            ]
        )
    return buf.getvalue().encode()


def _rows(*spec, stop=None):
    group = _parse_group(list(spec), build_parser())
    return group, group.rows()[:stop]


RENDER_INPUTS = {
    "elem2-2": lambda: _rows("elem2", "2"),
    "elem2-3": lambda: _rows("elem2", "3"),
    "elem2-5": lambda: _rows("elem2", "5"),
    "elem2-17": lambda: _rows("elem2", "17"),
    "cyclic-2-1": lambda: _rows("cyclic", "2", "1"),
    "cyclic-2-10": lambda: _rows("cyclic", "2", "10"),
    "cyclic-3-6": lambda: _rows("cyclic", "3", "6"),
    "cyclic-101-2": lambda: _rows("cyclic", "101", "2"),
    "empty": lambda: _rows("cyclic", "3", "2", stop=0),
    # chunk boundaries of the json render: one row past a chunk, and exactly two chunks
    "chunk-plus-one": lambda: _rows("elem2", "37", stop=JSON_CHUNK_ROWS + 1),
    "two-chunks": lambda: _rows("cyclic", "101", "2", stop=2 * JSON_CHUNK_ROWS),
}


@pytest.mark.parametrize("name", RENDER_INPUTS)
def test_render_records_matches_the_reference_encoders(name):
    group, rows = RENDER_INPUTS[name]()
    records = [ClassRecord(AffineForm(group, phi, psi, c), case, simple) for phi, psi, c, case, simple in rows]
    for fmt in ("json", "csv"):
        assert render_records(group, rows, fmt) == _reference_render(records, fmt), fmt


def test_chunk_boundary_inputs_cross_a_chunk():
    # cyclic 101 2 has 20 302 rows: more than one chunk, and not a multiple of it
    sizes = {name: len(RENDER_INPUTS[name]()[1]) for name in ("chunk-plus-one", "two-chunks", "cyclic-101-2")}
    assert sizes["chunk-plus-one"] == JSON_CHUNK_ROWS + 1 and sizes["two-chunks"] == 2 * JSON_CHUNK_ROWS
    assert sizes["cyclic-101-2"] > JSON_CHUNK_ROWS and sizes["cyclic-101-2"] % JSON_CHUNK_ROWS != 0
