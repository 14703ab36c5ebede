"""Collect perfbench runs into one BENCH_<label>.json file.

    python3 perfbench/run.py --workload cyclic-sweep --seed 1 > run1.txt
    python3 scripts/bench_record.py BENCH_mylabel.json run1.txt run2.txt ...

Each input holds the standard output of one ``perfbench/run.py`` run.  Its
last line is the run's result object (``correct``, ``attempted``,
``failed``, ``metrics``); the workload and seed come from the note line
``workload W, seed N: ...`` above it, and a ``--trace 1`` run is told
apart by its ``spans written to`` line.  The output lists one entry per
run, in the order given.
"""

from __future__ import annotations

import json
import re
import sys

NOTE = re.compile(r"^workload (?P<workload>\S+), seed (?P<seed>-?\d+):", re.MULTILINE)


def run_record(text: str) -> dict:
    """workload, seed, traced, correct, attempted, failed and metrics of one run's stdout."""
    note = NOTE.search(text)
    if note is None:
        raise ValueError("no 'workload W, seed N:' line; is this perfbench/run.py output?")
    result = json.loads(text.strip().splitlines()[-1])
    return {
        "workload": note["workload"],
        "seed": int(note["seed"]),
        "traced": "\nspans written to " in text,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: bench_record.py OUT.json RUN_STDOUT...", file=sys.stderr)
        return 2
    out, paths = argv[0], argv[1:]
    runs = []
    for path in paths:
        try:
            with open(path) as fh:
                runs.append(run_record(fh.read()))
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: {path}: {exc!r}", file=sys.stderr)
            return 2
    with open(out, "w") as fh:
        json.dump({"runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
