"""Smoke tests: the scripts under scripts/ run to completion on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce_counts.py", "--max-p", "5"],
        ["simple_census.py", "--primes", "3", "5"],
        ["simple_census.py", "--primes", "2", "3"],
    ],
)
def test_script_exits_zero(argv):
    result = run_script(argv)
    assert result.returncode == 0, result.stdout + result.stderr


def run_script(argv, **kwargs):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env,
        text=True,
        **(kwargs or {"capture_output": True}),
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce_counts.py", "--max-p", "2", "--max-k", "3"],
        ["simple_census.py", "--primes", "3", "5", "--oracle-max-p", "2"],
    ],
)
def test_scripts_exit_2_on_a_closed_stdout(argv):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write
    try:
        result = run_script(argv, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write <stdout>:")


def test_reproduce_counts_runs_both_oracle_columns_up_to_the_bound():
    # elem2 7 has order 49 and |Aff| = 98 784, within the orbit oracle's bound
    result = run_script(["reproduce_counts.py", "--max-p", "7", "--max-k", "1"])
    assert result.returncode == 0, result.stdout + result.stderr
    rows = {line[:14].strip(): line[14:].split() for line in result.stdout.splitlines()[1:9]}
    assert rows["cyclic(7,1)"] == ["13", "13", "13"]
    assert rows["elem2(7)"] == ["194", "194", "194"]


def test_scripts_skip_a_group_over_the_record_bound():
    # cyclic 2 20 has 2 097 152 classes, above affine.MAX_RECORDS, and elem2 1009 has 4 072 322
    result = run_script(["reproduce_counts.py", "--max-p", "2", "--max-k", "20"])
    assert result.returncode == 0, result.stdout + result.stderr
    rows = {line[:14].strip(): line[14:].split() for line in result.stdout.splitlines()[1:22]}
    assert rows["cyclic(2,20)"] == ["2097152", "-", "-"]
    assert rows["cyclic(2,19)"] == ["1048576", "1048576", "-"]
    # the oracle column stops where classify_two_stage refuses: |Aff(Z_2^k)| = 2^(2k - 1) <= 2^19
    assert rows["cyclic(2,10)"] == ["2048", "2048", "2048"]
    assert rows["cyclic(2,11)"] == ["4096", "4096", "-"]
    # a p of 2^31 or more is refused before the trial division that would take minutes
    result = run_script(["simple_census.py", "--primes", "1009", "1000000000000000003", "4"])
    assert result.returncode == 0, result.stdout + result.stderr
    assert [line.split(" (")[0] for line in result.stdout.splitlines()] == [
        "skipping p=1009", "skipping p=1000000000000000003", "skipping p=4"
    ]


CANNED_RUN = """\
workload cyclic-sweep, seed 7: 2 passes, 8 requests, 0 failed (failed_frac 0.0000)
items_per_s = 13500 1/s
{"correct": true, "attempted": 8, "failed": 0, "metrics": {"items_per_s": {"value": 13500.0, "unit": "1/s"}}}
"""


def test_bench_record_turns_run_output_into_a_bench_file(tmp_path):
    run = tmp_path / "run.txt"
    run.write_text(CANNED_RUN)
    out = tmp_path / "BENCH_test.json"
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), str(out), str(run), str(run)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    record = {
        "workload": "cyclic-sweep",
        "seed": 7,
        "traced": False,
        "correct": True,
        "attempted": 8,
        "failed": 0,
        "metrics": {"items_per_s": {"value": 13500.0, "unit": "1/s"}},
    }
    assert json.loads(out.read_text()) == {"runs": [record, record]}

    run.write_text("not perfbench output\n")
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), str(out), str(run)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2 and len(result.stderr.splitlines()) == 1
