"""One benchmark request inside a child process.

    python perfbench/child.py cli ARGV...            # paramedial's CLI, traced
    python perfbench/child.py tables GROUP...        # table checks over one group
    python perfbench/child.py classify INPUTS PASS   # classify_tables on relabelled copies

``cli`` is used only for traced requests; untraced CLI requests run
``python -m paramedial`` itself.  The library tasks print one JSON object.
When PERFBENCH_SPANS names a file, the layers are instrumented and the
spans are written there as the process ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from tracer import Tracer, instrument

SPANS_ENV = "PERFBENCH_SPANS"


def _forms(group: list[str]):
    from paramedial.enum_cyclic import enumerate_cyclic
    from paramedial.enum_gl2 import enumerate_gl2
    from paramedial.modring import Modulus

    if group[0] == "cyclic":
        return list(enumerate_cyclic(Modulus(int(group[1]), int(group[2]))).forms)
    return [rec.form for rec in enumerate_gl2(int(group[1])).records()]


def task_tables(group: list[str]) -> dict:
    """Materialize every class of the group and check both table identities."""
    from paramedial.affine import is_latin, is_paramedial, materialize, table_to_text

    tables = [materialize(f) for f in _forms(group)]
    text = "".join(table_to_text(t) for t in tables)
    return {
        "tables": len(tables),
        "latin": sum(is_latin(t) for t in tables),
        "paramedial": sum(is_paramedial(t) for t in tables),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def _relabel(table, perm):
    from paramedial.affine import QuasigroupTable

    n = table.n
    rows = [[0] * n for _ in range(n)]
    for x, row in enumerate(table.rows):
        for y, v in enumerate(row):
            rows[perm[x]][perm[y]] = perm[v]
    return QuasigroupTable(n, tuple(tuple(r) for r in rows))


def task_classify(inputs_path: str, pass_index: str) -> dict:
    """classify_tables on the order-9 representatives, then relabelled copies.

    The inputs give, per pass, (source representative, permutation) pairs.
    """
    from paramedial.affine import materialize, table_to_text
    from paramedial.oracle import classify_tables

    with open(inputs_path) as fh:
        copies = json.load(fh)["classify"][int(pass_index)]
    reps = [materialize(f) for g in (["elem2", "3"], ["cyclic", "3", "2"]) for f in _forms(g)]
    tables = reps + [_relabel(reps[src], perm) for src, perm in copies]
    ids = classify_tables(tables)
    return {
        "reps": len(reps),
        "reps_sha256": hashlib.sha256("".join(map(table_to_text, reps)).encode()).hexdigest(),
        "sources": [src for src, _ in copies],
        "ids": ids,
    }


def main(argv: list[str]) -> int:
    spans_path = os.environ.get(SPANS_ENV)
    tracer = Tracer()
    task, args = argv[0], argv[1:]
    code = 0
    try:
        rec = tracer.open("cli.import" if task == "cli" else "worker.import")
        import paramedial.cli  # noqa: F401  (imports every layer module)

        tracer.close(rec)
        if spans_path:
            instrument(tracer)
        if task == "cli":
            sys.argv = ["paramedial", *args]
            try:
                code = paramedial.cli.main(args)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        else:
            rec = tracer.open(f"worker.{task}")
            result = task_tables(args) if task == "tables" else task_classify(*args)
            tracer.close(rec)
            sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    finally:
        sys.stdout.flush()
        if spans_path:
            tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
