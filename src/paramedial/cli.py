"""Command-line front end: count, enumerate, verify.

Output of ``enumerate`` is byte-deterministic for fixed arguments, so it
can be diffed and cached.  It is one pass from the enumerator to the file
descriptor: rows are drawn, rendered and written a chunk at a time, and
neither the rows nor the output are ever held whole.  When the
PARAMEDIAL_CACHE_DIR environment variable is set, results are stored there
keyed by command, parameters and library version.  A miss streams the
chunks into a temporary file with a running sha256, writes the digest into
its slot at the head, replaces the entry, and only then copies the entry
out, so a failed store writes nothing.  A hit reads the entry twice, a
block at a time: it verifies the digest first and copies second, so a
corrupt or truncated entry is recomputed before a byte of it is written.
Run manifests (which carry a timestamp and the output's sha256) are only
written on request via --manifest, never into the primary output.

What depends on the kind of group comes from the group classes in
``affine``; the one choice by kind made here is which checks ``verify`` prints.

Exit codes: 0 success, 1 verification failure, 2 usage/order/IO error,
3 resource or bound exceeded, found from closed-form sizes before any
output (the library's bounds on classes and |Aff(G)|; here, table entries).
"""

from __future__ import annotations

import io
import math
import os
import sys
from collections.abc import Iterator
from functools import partial
from itertools import chain, groupby, islice
from operator import itemgetter

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
from .enum_cyclic import UnsupportedOrder, pq_total
from .enum_gl2 import coset_reps_for
from .modring import Modulus, mat_det, mat_mul
from .oracle import ResourceLimitError, classify_two_stage

CACHE_ENV = "PARAMEDIAL_CACHE_DIR"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

TABLES_MAX_ENTRIES = 2**25  # enumerate --format tables: records x n^2 entries at most
JSON_CHUNK_ROWS = 256  # enumerate --format json and csv: rows rendered and written at a time
COPY_BLOCK_BYTES = 2**20  # a cache entry is hashed and copied this many bytes at a time
DIGEST_SLOT = b"0" * 64 + b"\n"  # a cache entry's head, filled with the output's hex sha256


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


def record_to_dict(rec: ClassRecord) -> dict:
    """JSON form of one class: matrices as lists of rows, vectors flat."""
    form = rec.form
    phi, psi, c = ((v,) if type(v) is int else v for v in (form.phi, form.psi, form.c))  # over Z_{p^k}: ints
    return _record_dict(form.group, phi, psi, c, rec.simple, rec.case)


def _record_dict(group: GroupDescriptor, phi: tuple, psi: tuple, c: tuple, simple, case) -> dict:
    dim = group.dim
    return {
        "group": group.params(),
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


def _flattener(group: GroupDescriptor):
    """A row as csv rows and table headers show it: group, phi, psi, c,
    simple and case, matrix rows split by ';' and entries by ','."""
    name = group.describe()
    vector = ",".join(["%d"] * group.dim)
    matrix = ";".join([vector] * group.dim)

    def flat(row):
        phi, psi, c, case, simple = row
        return name, matrix % phi, matrix % psi, vector % c, "true" if simple else "false", case

    return flat


def _json_template(group: GroupDescriptor) -> str:
    """One record of `group` as a list item of the json output, with %
    placeholders for c, case, phi, psi and simple in that (key) order.
    The strings "\\0d" and "\\0s" hold their places through json.dumps;
    digits would not, since the group's own fields are digits (p = 101)."""
    import json

    d = ("\0d",) * group.dim
    matrix = d * group.dim
    text = json.dumps([_record_dict(group, matrix, matrix, d, "\0s", "\0s")], indent=2, sort_keys=True)
    return text[2:-2].replace(r'"\u0000d"', "%d").replace(r'"\u0000s"', "%s")


def _chunks(items) -> Iterator[list]:
    """Lists of JSON_CHUNK_ROWS consecutive items, the last one shorter or none."""
    items = iter(items)
    return iter(lambda: list(islice(items, JSON_CHUNK_ROWS)), [])


def _render(group: GroupDescriptor, rows, fmt: str) -> Iterator[bytes]:
    """The enumerator rows (phi, psi, c, case, simple) of `group` in `fmt`,
    as chunks of bytes drawn from `rows` one chunk at a time: JSON_CHUNK_ROWS
    rows per json or csv chunk, and one table per chunk of tables.

    json is byte-identical to json.dumps([record_to_dict(r) ...], indent=2,
    sort_keys=True) + "\\n": a chunk is one % of the group's template, repeated
    JSON_CHUNK_ROWS times in a format string built once; each case is encoded
    the first time it appears, as json.dumps writes a str."""
    if fmt == "json":
        from json.encoder import encode_basestring_ascii

        # In bytes, whose % copies the text between placeholders faster than str %.
        cases = {}
        flags = {True: b"true", False: b"false"}
        template = _json_template(group).encode()
        full = b"%s" + b",\n".join([template] * JSON_CHUNK_ROWS)  # "%s": the separator before the chunk
        separator = b"[\n"
        for chunk in _chunks(rows):
            for case in {row[3] for row in chunk}.difference(cases):
                cases[case] = encode_basestring_ascii(case).encode()
            values = [separator]
            if group.dim == 1:  # ints over Z_{p^k}, tuples over Z_p x Z_p
                values += [v for phi, psi, c, case, simple in chunk for v in (c, cases[case], phi, psi, flags[simple])]
            else:
                values += [v for phi, psi, c, case, simple in chunk for v in (*c, cases[case], *phi, *psi, flags[simple])]
            chunk_format = full if len(chunk) == JSON_CHUNK_ROWS else b"%s" + b",\n".join([template] * len(chunk))
            yield chunk_format % tuple(values)
            separator = b",\n"
        yield b"[]\n" if separator == b"[\n" else b"\n]\n"
    elif fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = ("group", "phi", "psi", "c", "simple", "case")
        for chunk in _chunks(chain([header], map(_flattener(group), rows))):
            writer.writerows(chunk)
            yield buf.getvalue().encode()
            buf.seek(0)
            buf.truncate()
    elif fmt == "tables":
        flat = _flattener(group)
        separator = ""
        for row in rows:
            name, phi, psi, c, simple, case = flat(row)
            header = f"{separator}# group={name} case={case} simple={simple} phi={phi} psi={psi} c={c}\n"
            yield (header + table_to_text(materialize(AffineForm(group, *row[:3])))).encode()
            separator = "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")


def render_records(group: GroupDescriptor, rows, fmt: str) -> bytes:
    """The whole of what ``enumerate`` writes for `rows`: the joined chunks of ``_render``."""
    return b"".join(_render(group, rows, fmt))


# -- caching and manifests ------------------------------------------------------
#
# hashlib, datetime and tempfile are imported by the functions that use
# them: a request without a cache directory or a manifest never loads them.
# So is json, which only a json render, a cache key, a manifest and
# count --json need.


def _sha256(data: bytes = b""):
    import hashlib

    return hashlib.sha256(data)


def _cache_path(command: str, params: dict) -> str | None:
    """The cache file of a request, keyed by command, parameters and
    library version; None when no cache directory is configured."""
    cache_dir = os.environ.get(CACHE_ENV)
    if not cache_dir:
        return None
    import json

    canon = json.dumps({"command": command, "params": params, "version": __version__}, sort_keys=True)
    return os.path.join(cache_dir, f"{_sha256(canon.encode()).hexdigest()}.out")


def _blocks(fh) -> Iterator[bytes]:
    """The rest of the file `fh`, COPY_BLOCK_BYTES at a time."""
    return iter(partial(fh.read, COPY_BLOCK_BYTES), b"")


def _cache_load(path: str | None) -> tuple[str, io.BufferedIOBase] | None:
    """The hex digest of the cached output and the entry open at the
    output's first byte, or None on a miss.  An entry is the hex sha256 of
    the output, a newline, then the output.  The whole entry is hashed, a
    block at a time, before it is returned, so an entry whose digest does
    not match (corrupt or truncated) is a miss too, found before any of it
    is copied."""
    if path is None:
        return None
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return None
    try:
        head = fh.read(len(DIGEST_SLOT))
        digest = _sha256()
        for block in _blocks(fh):
            digest.update(block)
        if head != digest.hexdigest().encode() + b"\n":
            fh.close()
            return None
        fh.seek(len(head))
    except BaseException:
        fh.close()
        raise
    return digest.hexdigest(), fh


def _cache_store(path: str, chunks) -> tuple[str, io.BufferedIOBase]:
    """Write the chunks to a temporary file beside `path` with a running
    sha256, put the digest last into its slot at the head, and only then
    replace the entry at `path` with it.  Returns the digest and the new
    entry open at the output's first byte; a failure leaves no file."""
    import tempfile

    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory)
    fh = os.fdopen(fd, "w+b")
    try:
        fh.write(DIGEST_SLOT)
        digest = _sha256()
        _write_chunks(fh, chunks, digest)
        fh.seek(0)
        fh.write(digest.hexdigest().encode())
        fh.seek(len(DIGEST_SLOT))
        os.replace(tmp, path)
    except BaseException:
        fh.close()
        os.unlink(tmp)  # no half-written entry is left behind
        raise
    return digest.hexdigest(), fh


def _write_manifest(path: str, command: str, params: dict, digest: str) -> None:
    import json
    from datetime import datetime, timezone

    manifest = {
        "command": command,
        "parameters": params,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "output_digest": "sha256:" + digest,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_chunks(fh, chunks, digest=None) -> None:
    """Write each chunk as it comes, adding it to the running `digest`, if
    any.  Every byte is written: a raw stream, such as stdout under
    ``PYTHONUNBUFFERED``, may take only part of a write and return the count
    it took."""
    for chunk in chunks:
        if digest is not None:
            digest.update(chunk)
        view = memoryview(chunk)
        while view:
            view = view[fh.write(view) :]


def _emit(chunks, out_path: str | None, digest=None) -> None:
    if out_path is None:
        _write_chunks(sys.stdout.buffer, chunks, digest)
        sys.stdout.buffer.flush()
    else:
        with open(out_path, "wb") as fh:
            _write_chunks(fh, chunks, digest)


# -- subcommands ------------------------------------------------------------------


def cmd_count(args, parser) -> int:
    if args.order is not None:
        if args.order < 1:
            parser.exit(EXIT_USAGE, f"error: --order must be at least 1, got {args.order}\n")
        count = pq_total(args.order)
        params = {"order": args.order}
    else:
        group = _parse_group(args.group, parser)
        count = group.closed_count()
        params = {"group": group.params()}
    if args.json:
        import json

        print(json.dumps({"command": "count", **params, "count": count}, sort_keys=True))
    else:
        print(count)
    return EXIT_OK


def cmd_enumerate(args, parser) -> int:
    group = _parse_group(args.group, parser)
    count = group.closed_count(args.simple_only)
    if args.format == "tables" and count * group.order**2 > TABLES_MAX_ENTRIES:
        raise ResourceLimitError(
            f"--format tables is bounded to {TABLES_MAX_ENTRIES} table entries, "
            f"{group.describe()} needs {count} tables of {group.order}^2 = {count * group.order**2}"
        )
    params = {
        "group": group.params(),
        "simple_only": args.simple_only,
        "format": args.format,
    }
    key_path = _cache_path("enumerate", params)
    action = f"use cache entry {key_path}"
    try:
        entry = _cache_load(key_path)
        if entry is None:
            rows = group.classification() if count else ()  # no class to keep, none to build
            if args.simple_only:
                rows = filter(itemgetter(4), rows)
            chunks = _render(group, rows, args.format)
            if key_path is not None:
                entry = _cache_store(key_path, chunks)  # stored whole before any byte is written
        action = f"write {args.out or '<stdout>'}"
        if entry is None:  # no cache: each chunk goes out as it is rendered
            running = _sha256() if args.manifest else None
            _emit(chunks, args.out, running)
            digest = running and running.hexdigest()
        else:
            digest, fh = entry
            with fh:
                _emit(_blocks(fh), args.out)
        if args.manifest:
            action = f"write {args.manifest}"
            _write_manifest(args.manifest, "enumerate", params, digest)
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and args.out is None:
            raise  # a closed stdout, which main reports once, whatever is left in its buffer
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


def _verify_cyclic(group: CyclicGroup, rows, report: _Report) -> None:
    """Over Z_n, n = p^k: phi and psi are residues 0 < x < n prime to p with
    phi^2 = psi^2, and the triples are sorted and distinct, each c being 0 or a
    power of p below gcd(1 - phi - psi, n): the least point of its unit orbit on
    Z_n / Im(1 - phi - psi).  With the closed-form count, no constant is missing."""
    n, p = group.modulus.n, group.modulus.p
    report.check("phi and psi are units", all(0 < x < n and x % p for row in rows for x in row[:2]))
    report.check("phi^2 = psi^2 for every class", all((phi * phi - psi * psi) % n == 0 for phi, psi, *_ in rows))
    powers = {p**j for j in range(group.modulus.k)}
    least = all(c == 0 or c in powers and c < math.gcd(1 - phi - psi, n) for phi, psi, c, _, _ in rows)
    keys = [row[:3] for row in rows]
    report.check("classes are sorted and distinct", least and keys == sorted(set(keys)))


def _verify_elem2(group: ElemAbelian2Group, rows, report: _Report) -> None:
    """Over Z_p x Z_p: entries lie in 0..p-1, phi^2 = psi^2 for invertible phi
    and psi, each pair's rows are consecutive with coset_reps_for's constants
    in order, and the simple flags sum to the closed form and match is_simple."""
    p = group.p
    runs = [(pair, [row[2] for row in run]) for pair, run in groupby(rows, itemgetter(0, 1))]
    ok_struct = len(dict(runs)) == len(runs) and all(
        all(0 <= x < p for x in phi + psi)  # each c is compared with coset_reps_for's reduced ones
        and mat_det(phi, p) != 0  # so det(psi) != 0 too, as det(psi)^2 = det(phi)^2 below
        and mat_mul(phi, phi, p) == mat_mul(psi, psi, p)
        and cs == coset_reps_for(phi, psi, p)
        for (phi, psi), cs in runs
    )
    report.check("rows satisfy phi^2 = psi^2 with admissible constants", ok_struct)
    simple_total = sum(row[4] for row in rows)
    formula = group.closed_count(simple_only=True)
    report.check(f"simple class count equals {formula}", simple_total == formula, f"got {simple_total}")
    ok_flags = all(is_simple(group, phi, psi) == simple for phi, psi, _, _, simple in rows)
    report.check("simplicity flags match the invariant-subgroup criterion", ok_flags)


def cmd_verify(args, parser) -> int:
    group = _parse_group(args.group, parser)
    oracle_cls = classify_two_stage(group) if args.level == "oracle" else None  # its refusal precedes any output
    # The one choice by kind: the pinned stdout names the group and lists the checks per kind.
    if isinstance(group, CyclicGroup):
        name, checks = f"Z_{group.order}", _verify_cyclic
    else:
        name, checks = f"Z_{group.p}^2", _verify_elem2
    rows = group.rows()  # as enumerate renders them, each check validating what it reads
    expected = group.closed_count()
    report = _Report()
    report.check(f"count over {name} equals closed form {expected}", len(rows) == expected, f"got {len(rows)}")
    checks(group, rows, report)
    if oracle_cls is not None:
        report.check(f"oracle orbit count equals {expected}", oracle_cls.count == expected, f"got {oracle_cls.count}")
        hit = {oracle_cls.orbit_of(phi, psi, c) for phi, psi, c, _, _ in rows} - {None}  # None: outside its triples
        report.check("representatives hit every orbit exactly once", len(hit) == len(rows) == oracle_cls.count)
    if report.failures:
        print(f"{report.failures} check(s) failed")
        return EXIT_VERIFY_FAILED
    print("all checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    import argparse  # here, not at the top, for the library callers of this module; annotations are strings

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
        code = args.func(args, parser)
        sys.stdout.flush()  # here, where a closed pipe is caught, not at interpreter exit
        return code
    except BrokenPipeError as exc:
        print(f"error: cannot write <stdout>: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the interpreter's final flush fails no more
        os.close(devnull)
        return EXIT_USAGE
    except UnsupportedOrder as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
