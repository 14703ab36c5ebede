"""Command-line front end: count, enumerate, verify.

Output of ``enumerate`` is byte-deterministic for fixed arguments, so it
can be diffed and cached: when the PARAMEDIAL_CACHE_DIR environment
variable is set, serialized results are stored there keyed by command,
parameters and library version, each with its sha256, and a warm run
replays the exact bytes once the digest matches (otherwise it recomputes).
Run manifests (which carry a timestamp) are only written on request via
--manifest, never into the primary output.

Exit codes: 0 success, 1 verification failure, 2 usage/order/IO error,
3 resource or bound exceeded.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from . import __version__
from .affine import (
    AffineForm,
    ClassRecord,
    CyclicGroup,
    ElemAbelian2Group,
    GroupDescriptor,
    is_simple,
    materialize,
    table_to_text,
)
from .enum_cyclic import (
    UnsupportedOrder,
    closed_form_count,
    enumerate_cyclic,
    gl2_closed_count,
    pq_total,
    simple_closed_count,
)
from .enum_gl2 import coset_reps_for, enumerate_gl2
from .modring import Mat2, Modulus, Vec2, mat_det, mat_mul
from .oracle import ResourceLimitError, classify_two_stage, encode_triple

CACHE_ENV = "PARAMEDIAL_CACHE_DIR"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

ORACLE_MAX_ORDER = 27  # verify --level oracle: cyclic up to order 27, elem2 p <= 5
TABLES_MAX_ENTRIES = 2**25  # enumerate --format tables: records x n^2 entries at most
MAX_RECORDS = 2**20  # enumerate and verify: classes of the group at most


def _parse_group(tokens: list[str], parser: argparse.ArgumentParser) -> GroupDescriptor:
    try:
        if tokens[0] == "cyclic" and len(tokens) == 3:
            return CyclicGroup(Modulus(int(tokens[1]), int(tokens[2])))
        if tokens[0] == "elem2" and len(tokens) == 2:
            return ElemAbelian2Group(int(tokens[1]))
    except ValueError as exc:
        parser.exit(EXIT_USAGE, f"error: {exc}\n")
    expected = "expected '--group cyclic P K' or '--group elem2 P'"
    parser.exit(EXIT_USAGE, f"error: {expected}, got {tokens!r}\n")


def _group_json(group: GroupDescriptor) -> dict:
    if isinstance(group, CyclicGroup):
        return {"kind": "cyclic", "p": group.modulus.p, "k": group.modulus.k}
    return {"kind": "elem2", "p": group.p}


def _closed_count(group: GroupDescriptor) -> int:
    if isinstance(group, CyclicGroup):
        return closed_form_count(group.modulus)
    return gl2_closed_count(group.p)


def _require_record_bound(command: str, group: GroupDescriptor) -> None:
    """Refuse, before any work, a group with more classes than MAX_RECORDS."""
    count = _closed_count(group)
    if count > MAX_RECORDS:
        raise ResourceLimitError(f"{command} is bounded to {MAX_RECORDS} classes, {group.describe()} has {count}")


def _records_for(group: GroupDescriptor) -> list[ClassRecord]:
    if isinstance(group, CyclicGroup):
        return list(enumerate_cyclic(group.modulus).records)
    return enumerate_gl2(group.p).records()


def record_to_dict(rec: ClassRecord) -> dict:
    """JSON form of one class: matrices as lists of rows, vectors flat."""
    return _record_dict(rec.form.group, *_entries(rec.form), rec.simple, rec.case)


def _record_dict(group: GroupDescriptor, phi: tuple, psi: tuple, c: tuple, simple, case) -> dict:
    dim = len(c)
    return {
        "group": _group_json(group),
        "phi": [list(phi[i : i + dim]) for i in range(0, dim * dim, dim)],
        "psi": [list(psi[i : i + dim]) for i in range(0, dim * dim, dim)],
        "c": list(c),
        "simple": simple,
        "case": case,
    }


def form_from_dict(d: dict) -> AffineForm:
    """The form of a record_to_dict record; ValueError for any other shape.

    A missing key, a value of the wrong type (a bool or a float where an
    int belongs) and a record or group that is not a dict all raise
    KeyError or TypeError below, from the lookups or the constructors."""
    try:
        g = d["group"]
        dim = {"cyclic": 1, "elem2": 2}.get(g["kind"])
        if dim is None:
            raise ValueError(f"unknown group kind {g['kind']!r}")

        def sized(x) -> bool:
            return isinstance(x, list) and len(x) == dim

        if not all(sized(m) and all(map(sized, m)) for m in (d["phi"], d["psi"])) or not sized(d["c"]):
            raise ValueError(f"phi and psi must be {dim} x {dim} lists of rows and c a list of {dim} entries")
        phi, psi = (tuple(v for row in d[key] for v in row) for key in ("phi", "psi"))
        if dim == 1:
            return AffineForm(CyclicGroup(Modulus(g["p"], g["k"])), phi[0], psi[0], d["c"][0])
        return AffineForm(ElemAbelian2Group(g["p"]), phi, psi, tuple(d["c"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed record: {exc!r}") from None


def _entries(form: AffineForm) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """phi, psi and c of a form as flat row-major tuples of ints."""
    if isinstance(form.group, CyclicGroup):
        return (form.phi,), (form.psi,), (form.c,)
    return form.phi, form.psi, form.c


def _flat_fields(form: AffineForm) -> tuple[str, str, str]:
    """phi, psi and c as csv and table headers show them: matrix rows
    split by ';', entries by ','."""
    matrix, vector = ("%d", "%d") if isinstance(form.group, CyclicGroup) else ("%d,%d;%d,%d", "%d,%d")
    return matrix % form.phi, matrix % form.psi, vector % form.c


def _json_template(group: GroupDescriptor) -> str:
    """One record of `group` as a list item of the json output, with %
    placeholders for c, case, phi, psi and simple in that (key) order.
    The strings "\\0d" and "\\0s" hold their places through json.dumps;
    digits would not, since the group's own fields are digits (p = 101)."""
    d = ("\0d",) * (1 if isinstance(group, CyclicGroup) else 4)
    text = json.dumps([_record_dict(group, d, d, d[:2], "\0s", "\0s")], indent=2, sort_keys=True)
    return text[2:-2].replace(r'"\u0000d"', "%d").replace(r'"\u0000s"', "%s")


def render_records(records: list[ClassRecord], fmt: str) -> bytes:
    """The records in `fmt`.  json is byte-identical to
    json.dumps([record_to_dict(r) ...], indent=2, sort_keys=True) + "\n",
    but each record is written through its group's template."""
    if fmt == "json":
        # Each record is encoded as it is written, so the output exists
        # once as parts and once joined, never also as one str.
        parts = []
        separator = "[\n"
        group = template = None
        for rec in records:
            if rec.form.group is not group:
                group = rec.form.group
                template = _json_template(group)
            phi, psi, c = _entries(rec.form)
            case = json.encoder.encode_basestring_ascii(rec.case)  # as json.dumps writes a str
            values = (*c, case, *phi, *psi, "true" if rec.simple else "false")
            parts.append((separator + template % values).encode())
            separator = ",\n"
        parts.append(b"\n]\n" if parts else b"[]\n")
        return b"".join(parts)
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["group", "phi", "psi", "c", "simple", "case"])
        writer.writerows(
            (rec.form.group.describe(), *_flat_fields(rec.form), "true" if rec.simple else "false", rec.case)
            for rec in records
        )
        return buf.getvalue().encode()
    if fmt == "tables":
        chunks = []
        for rec in records:
            phi, psi, c = _flat_fields(rec.form)
            header = (
                f"# group={rec.form.group.describe()}"
                f" case={rec.case}"
                f" simple={'true' if rec.simple else 'false'}"
                f" phi={phi} psi={psi} c={c}"
            )
            chunks.append(header + "\n" + table_to_text(materialize(rec.form)))
        return "\n".join(chunks).encode()
    raise ValueError(f"unknown format {fmt!r}")


# -- caching and manifests ------------------------------------------------------
#
# hashlib, datetime and tempfile are imported by the functions that use
# them: a request without a cache directory or a manifest never loads them.


def _sha256(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _cache_path(command: str, params: dict) -> str | None:
    """The cache file of a request, keyed by command, parameters and
    library version; None when no cache directory is configured."""
    cache_dir = os.environ.get(CACHE_ENV)
    if not cache_dir:
        return None
    canon = json.dumps({"command": command, "params": params, "version": __version__}, sort_keys=True)
    return os.path.join(cache_dir, f"{_sha256(canon.encode())}.out")


def _cache_load(path: str | None) -> bytes | None:
    """The cached output, or None on a miss.  An entry is the hex sha256
    of the output, a newline, then the output; an entry whose digest does
    not match (corrupt or truncated) is a miss too."""
    if path is None or not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        digest, _, data = fh.read().partition(b"\n")
    if digest != _sha256(data).encode():
        return None
    return data


def _cache_store(path: str | None, data: bytes) -> None:
    if path is None:
        return
    import tempfile

    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path))
    with os.fdopen(fd, "wb") as fh:
        fh.write(_sha256(data).encode() + b"\n")
        fh.write(data)
    os.replace(tmp, path)


def _write_manifest(path: str, command: str, params: dict, data: bytes) -> None:
    from datetime import datetime, timezone

    manifest = {
        "command": command,
        "parameters": params,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "output_digest": "sha256:" + _sha256(data),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(data: bytes, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(out_path, "wb") as fh:
            fh.write(data)


# -- subcommands ------------------------------------------------------------------


def cmd_count(args, parser) -> int:
    if args.order is not None:
        if args.order < 1:
            parser.exit(EXIT_USAGE, f"error: --order must be at least 1, got {args.order}\n")
        count = pq_total(args.order)
        params = {"order": args.order}
    else:
        group = _parse_group(args.group, parser)
        count = _closed_count(group)
        params = {"group": _group_json(group)}
    if args.json:
        print(json.dumps({"command": "count", **params, "count": count}, sort_keys=True))
    else:
        print(count)
    return EXIT_OK


def cmd_enumerate(args, parser) -> int:
    group = _parse_group(args.group, parser)
    _require_record_bound("enumerate", group)
    params = {
        "group": _group_json(group),
        "simple_only": args.simple_only,
        "format": args.format,
    }
    key_path = _cache_path("enumerate", params)
    action = f"use cache entry {key_path}"
    try:
        data = _cache_load(key_path)
        if data is None:
            records = _records_for(group)
            if args.simple_only:
                records = [r for r in records if r.simple]
            if args.format == "tables":
                entries = len(records) * group.order**2
                if entries > TABLES_MAX_ENTRIES:
                    raise ResourceLimitError(
                        f"--format tables is bounded to {TABLES_MAX_ENTRIES} table entries, "
                        f"{group.describe()} needs {len(records)} tables of {group.order}^2 = {entries}"
                    )
            data = render_records(records, args.format)
            _cache_store(key_path, data)
        action = f"write {args.out or '<stdout>'}"
        _emit(data, args.out)
        if args.manifest:
            action = f"write {args.manifest}"
            _write_manifest(args.manifest, "enumerate", params, data)
    except OSError as exc:
        print(f"error: cannot {action}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


class _Report:
    """The failures counted so far, each check printed as it is made."""

    def __init__(self):
        self.failures = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        if ok:
            print(f"ok: {name}")
        else:
            self.failures += 1
            print(f"FAIL: {name}" + (f" ({detail})" if detail else ""))


def _verify_against_oracle(
    group: GroupDescriptor, forms: tuple[AffineForm, ...], expected: int, report: _Report
) -> None:
    """Check that the orbit oracle finds `expected` classes and that the
    forms hit each of them exactly once."""
    if group.order > ORACLE_MAX_ORDER:
        raise ResourceLimitError(
            f"oracle verification is bounded to groups of order <= {ORACLE_MAX_ORDER}, "
            f"{group.describe()} has order {group.order}"
        )
    oracle_cls = classify_two_stage(group, max_order=ORACLE_MAX_ORDER)
    report.check(
        f"oracle orbit count equals {expected}",
        oracle_cls.count == expected,
        f"got {oracle_cls.count}",
    )
    hit = {oracle_cls.orbit_of(f) for f in forms}
    report.check(
        "representatives hit every orbit exactly once",
        len(hit) == len(forms) == oracle_cls.count,
    )


def _verify_cyclic(group: CyclicGroup, level: str, report: _Report) -> None:
    m = group.modulus
    cls = enumerate_cyclic(m)
    forms = cls.forms
    expected = closed_form_count(m)
    report.check(
        f"count over Z_{m.n} equals closed form {expected}",
        cls.count == expected,
        f"got {cls.count}",
    )
    ok_units = all(f.phi % m.p != 0 and f.psi % m.p != 0 for f in forms)
    report.check("phi and psi are units", ok_units)
    ok_pm = all((f.phi**2 - f.psi**2) % m.n == 0 for f in forms)
    report.check("phi^2 = psi^2 for every class", ok_pm)
    keys = [encode_triple(f) for f in forms]
    report.check("classes are sorted and distinct", keys == sorted(set(keys)))
    if level == "oracle":
        _verify_against_oracle(group, forms, expected, report)


def _verify_elem2(group: ElemAbelian2Group, level: str, report: _Report) -> None:
    p = group.p
    records = enumerate_gl2(p).records()
    expected = gl2_closed_count(p)
    report.check(
        f"count over Z_{p}^2 equals closed form {expected}",
        len(records) == expected,
        f"got {len(records)}",
    )
    constants: dict[tuple[Mat2, Mat2], list[Vec2]] = {}
    for rec in records:
        constants.setdefault((rec.form.phi, rec.form.psi), []).append(rec.form.c)
    ok_struct = all(
        mat_det(phi, p) != 0
        and mat_det(psi, p) != 0
        and mat_mul(phi, phi, p) == mat_mul(psi, psi, p)
        and cs == coset_reps_for(phi, psi, p)
        for (phi, psi), cs in constants.items()
    )
    report.check("rows satisfy phi^2 = psi^2 with admissible constants", ok_struct)
    simple_total = sum(rec.simple for rec in records)
    formula = simple_closed_count(p)
    report.check(
        f"simple class count equals {formula}",
        simple_total == formula,
        f"got {simple_total}",
    )
    ok_flags = all(is_simple(rec.form) == rec.simple for rec in records)
    report.check("simplicity flags match the invariant-subgroup criterion", ok_flags)
    if level == "oracle":
        _verify_against_oracle(group, tuple(rec.form for rec in records), expected, report)


def cmd_verify(args, parser) -> int:
    group = _parse_group(args.group, parser)
    _require_record_bound("verify", group)
    report = _Report()
    if isinstance(group, CyclicGroup):
        _verify_cyclic(group, args.level, report)
    else:
        _verify_elem2(group, args.level, report)
    if report.failures:
        print(f"{report.failures} check(s) failed")
        return EXIT_VERIFY_FAILED
    print("all checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paramedial",
        description="Count, enumerate and verify paramedial quasigroups of prime-power order.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="number of classes for an order or a group")
    target = p_count.add_mutually_exclusive_group(required=True)
    target.add_argument("--order", type=int, help="total over all abelian groups of this order")
    target.add_argument("--group", nargs="+", metavar="SPEC", help="cyclic P K | elem2 P")
    p_count.add_argument("--json", action="store_true", help="emit a JSON object instead of the bare integer")
    p_count.set_defaults(func=cmd_count)

    p_enum = sub.add_parser("enumerate", help="export one representative per class")
    p_enum.add_argument("--group", nargs="+", metavar="SPEC", required=True, help="cyclic P K | elem2 P")
    p_enum.add_argument("--simple-only", action="store_true", help="keep only simple quasigroups")
    p_enum.add_argument("--format", choices=["json", "csv", "tables"], default="json")
    p_enum.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    p_enum.add_argument("--manifest", metavar="PATH", help="also write a run manifest with digest")
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run invariant checks against the classification")
    p_verify.add_argument("--group", nargs="+", metavar="SPEC", required=True, help="cyclic P K | elem2 P")
    p_verify.add_argument("--level", choices=["fast", "oracle"], default="fast")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except UnsupportedOrder as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
