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
``verify`` reads the same stream once, folding every check over the rows as
they are drawn, and prints the check lines after the pass.

argv is read against one table, ``OPTIONS``, by ``_parse_args``; there is no
argparse, whose import (with gettext) and parser set-up cost a short
request several times its own work.  The reading is argparse's: a long
option may be any unique prefix of its name and may carry its value as
--option=value, a repeated option keeps its last value, a token that looks
like a negative number is a value, and an option of several values
(--group) takes the values up to the next option.  ``-h`` or ``--help``
prints ``USAGE`` and exits 0; every usage error prints one ``error:`` line
and raises SystemExit(2).

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
from itertools import chain, groupby, islice, takewhile
from operator import itemgetter
from types import SimpleNamespace

from . import __version__
from . import enum_gl2  # noqa: F401  (loaded with cli: perfbench's tracer finds each layer module in sys.modules)
from .affine import (
    AffineForm,
    ClassRecord,
    CyclicGroup,
    ElemAbelian2Group,
    GroupDescriptor,
    ResourceLimitError,
    is_simple,
    materialize,
    table_to_text,
)
from .enum_cyclic import UnsupportedOrder, pq_total
from .modring import Modulus, mat_det, mat_mul
from .oracle import classify_two_stage

CACHE_ENV = "PARAMEDIAL_CACHE_DIR"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

TABLES_MAX_ENTRIES = 2**25  # enumerate --format tables: records x n^2 entries at most
JSON_CHUNK_ROWS = 256  # enumerate --format json and csv: rows rendered and written at a time
COPY_BLOCK_BYTES = 2**20  # a cache entry is hashed and copied this many bytes at a time
DIGEST_SLOT = b"0" * 64 + b"\n"  # a cache entry's head, filled with the output's hex sha256


def _usage_error(message: str):
    """Print `message` as the one ``error:`` line of a usage error and raise SystemExit(2)."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _parse_group(tokens: list[str]) -> GroupDescriptor:
    try:
        if tokens[0] == "cyclic" and len(tokens) == 3:
            return CyclicGroup(Modulus(int(tokens[1]), int(tokens[2])))
        if tokens[0] == "elem2" and len(tokens) == 2:
            return ElemAbelian2Group(int(tokens[1]))
    except ValueError as exc:
        _usage_error(str(exc))
    _usage_error(f"expected '--group cyclic P K' or '--group elem2 P', got {tokens!r}")


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
# So is json, which only a json render, a manifest and count --json need.


def _sha256(data: bytes = b""):
    import hashlib

    return hashlib.sha256(data)


def _canonical(value) -> str:
    """json.dumps(value, sort_keys=True) for the dicts, strs, ints and bools
    of a cache key or a ``count --json`` reply, without importing json.  Its
    strs are names and a version number, in which json escapes nothing."""
    if isinstance(value, dict):
        return "{" + ", ".join(f'"{key}": {_canonical(value[key])}' for key in sorted(value)) + "}"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _cache_path(command: str, params: dict) -> str | None:
    """The cache file of a request, keyed by command, parameters and
    library version; None when no cache directory is configured."""
    cache_dir = os.environ.get(CACHE_ENV)
    if not cache_dir:
        return None
    canon = _canonical({"command": command, "params": params, "version": __version__})
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


def cmd_count(args) -> int:
    if args.order is not None:
        if args.order < 1:
            _usage_error(f"--order must be at least 1, got {args.order}")
        count = pq_total(args.order)
        params = {"order": args.order}
    else:
        group = _parse_group(args.group)
        count = group.closed_count()
        params = {"group": group.params()}
    print(_canonical({"command": "count", **params, "count": count}) if args.json else count)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    for name, path in (("--out", args.out), ("--manifest", args.manifest)):
        if path == "":
            _usage_error(f"{name} needs a PATH, got ''")
    group = _parse_group(args.group)
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


def _verify_cyclic(group: CyclicGroup) -> tuple[int, list[tuple]]:
    """The row count and the checks over Z_n, n = p^k, in one pass: phi and psi
    are residues 0 < x < n prime to p with phi^2 = psi^2, and the triples
    strictly increase, each c being 0 or a power of p below gcd(1 - phi - psi, n):
    the least point of its unit orbit on Z_n / Im(1 - phi - psi).  With the
    closed-form count, no constant is missing."""
    n, p = group.modulus.n, group.modulus.p
    powers = {p**j for j in range(group.modulus.k)}
    count, units, squares, ordered, previous = 0, True, True, True, ()
    for phi, psi, c, _, _ in group.classification():
        count += 1
        units &= 0 < phi < n and 0 < psi < n and phi % p != 0 and psi % p != 0
        squares &= (phi * phi - psi * psi) % n == 0
        ordered &= previous < (phi, psi, c) and (c == 0 or c in powers and c < math.gcd(1 - phi - psi, n))
        previous = phi, psi, c
    names = ("phi and psi are units", "phi^2 = psi^2 for every class", "classes are sorted and distinct")
    return count, list(zip(names, (units, squares, ordered)))


def _constants_admissible(phi: tuple, psi: tuple, constants: list, p: int) -> bool:
    """Whether a pair's constants are one per class, by linear algebra on
    m = 1 - phi - psi alone: [(0, 0)] when det m != 0, else (0, 0) and one
    reduced w outside Im m.  The classes are the orbits of the joint
    centralizer on Z_p^2 / Im m.  At rank one the scalars, in every
    centralizer, move any non-zero coset to any other, and w is no multiple of
    m's non-zero column; m = 0 only for phi = psi = 2^-1 I, whose centralizer
    is GL(2,p), and w is non-zero."""
    a, b = (1 - phi[0] - psi[0]) % p, -(phi[1] + psi[1]) % p
    c, d = -(phi[2] + psi[2]) % p, (1 - phi[3] - psi[3]) % p
    if (a * d - b * c) % p:
        return constants == [(0, 0)]
    if len(constants) != 2 or constants[0] != (0, 0) or not all(0 <= x < p for x in constants[1]):
        return False
    (x, y), (u, v) = constants[1], ((a, c) if a or c else (b, d))  # (u, v) spans Im m, or is 0 at rank zero
    return (u * y - v * x) % p != 0 if u or v else (x, y) != (0, 0)


def _verify_elem2(group: ElemAbelian2Group) -> tuple[int, list[tuple]]:
    """The row count and the checks over Z_p x Z_p, in one pass that holds the
    phi seen and the psi of the current phi, not the rows: entries lie in
    0..p-1, phi^2 = psi^2 for invertible phi and psi, each phi's rows are
    consecutive and within them each pair's, with admissible constants in
    order, and the simple flags sum to the closed form and match is_simple."""
    p, count, simple_total, struct, flags, seen = group.p, 0, 0, True, True, set()
    residues = frozenset(range(p))
    for phi, block in groupby(group.classification(), itemgetter(0)):
        struct &= phi not in seen
        seen.add(phi)
        roots = set()
        for psi, run in groupby(block, itemgetter(1)):
            run = list(run)  # the pair's rows, one per constant
            struct &= (
                psi not in roots
                and residues.issuperset(phi + psi)
                and mat_det(phi, p) != 0  # so det(psi) != 0 too, as det(psi)^2 = det(phi)^2 below
                and mat_mul(phi, phi, p) == mat_mul(psi, psi, p)
                and _constants_admissible(phi, psi, [row[2] for row in run], p)
            )
            roots.add(psi)
            count += len(run)
            simple_total += sum(row[4] for row in run)
            flags &= all(row[4] == is_simple(group, phi, psi) for row in run)
    formula = group.closed_count(simple_only=True)
    return count, [
        ("rows satisfy phi^2 = psi^2 with admissible constants", struct),
        (f"simple class count equals {formula}", simple_total == formula, f"got {simple_total}"),
        ("simplicity flags match the invariant-subgroup criterion", flags),
    ]


def cmd_verify(args) -> int:
    group = _parse_group(args.group)
    oracle_cls = classify_two_stage(group) if args.level == "oracle" else None  # its refusal precedes any output
    # The one choice by kind: the pinned stdout names the group and lists the checks per kind.
    if isinstance(group, CyclicGroup):
        name, checks = f"Z_{group.order}", _verify_cyclic
    else:
        name, checks = f"Z_{group.p}^2", _verify_elem2
    count, results = checks(group)  # one pass over the rows enumerate streams, each check validating what it reads
    expected = group.closed_count()
    results = [(f"count over {name} equals closed form {expected}", count == expected, f"got {count}"), *results]
    if oracle_cls is not None:  # a second pass, bounded by the oracle's refusal; None: a triple outside its set
        hit = {oracle_cls.orbit_of(phi, psi, c) for phi, psi, c, _, _ in group.classification()} - {None}
        results.append((f"oracle orbit count equals {expected}", oracle_cls.count == expected, f"got {oracle_cls.count}"))
        results.append(("representatives hit every orbit exactly once", len(hit) == count == oracle_cls.count))
    for line, ok, *detail in results:
        print(f"ok: {line}" if ok else f"FAIL: {line}" + "".join(f" ({d})" for d in detail))
    failures = sum(not ok for _, ok, *_ in results)
    print(f"{failures} check(s) failed" if failures else "all checks passed")
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


# -- argv ---------------------------------------------------------------------------

USAGE = """\
usage: paramedial count (--order N | --group SPEC...) [--json]
       paramedial enumerate --group SPEC... [--simple-only] [--format {json,csv,tables}]
                            [--out PATH] [--manifest PATH]
       paramedial verify --group SPEC... [--level {fast,oracle}]

Count, enumerate and verify paramedial quasigroups of prime-power order.
SPEC is 'cyclic P K' for Z_{P^K} or 'elem2 P' for Z_P x Z_P.

count            the number of classes of a group, or of all groups of an order
  --order N        the total over the abelian groups of order N
  --json           a JSON object instead of the bare integer
enumerate        one representative per class
  --simple-only    only the simple quasigroups
  --format F       json (the default), csv or tables
  --out PATH       the output file, instead of stdout
  --manifest PATH  also a run manifest, with the output's sha256
verify           invariant checks against the classification
  --level L        fast (the default) or oracle

An option may be shortened to any unique prefix, and given as --option=value.
Exit codes: 0 success, 1 verification failure, 2 usage, order or I/O error,
3 resource or bound exceeded.
"""

# Each subcommand's options, by kind: bool a flag; int or str one value; list
# one or more values, up to the next option; a tuple one of its choices, the
# first being the default.  Exactly one option of each ONE_OF group is given.
OPTIONS = {
    "count": {"--order": int, "--group": list, "--json": bool},
    "enumerate": {
        "--group": list,
        "--simple-only": bool,
        "--format": ("json", "csv", "tables"),
        "--out": str,
        "--manifest": str,
    },
    "verify": {"--group": list, "--level": ("fast", "oracle")},
}
ONE_OF = {"count": ("--order", "--group"), "enumerate": ("--group",), "verify": ("--group",)}


def _option(token: str, names) -> tuple[str | None, str | None] | None:
    """None when `token` is a value; else the option it names among `names`
    (None for an unknown one) and the value it carries, if any.  As argparse
    reads them: "-", a token like a negative number and one with a space in
    it are values; a long option may be any unique prefix of its name, and
    carries the value after "="; "-hX" is -h carrying X."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token.startswith("--"):
        name, eq, value = token.partition("=")
        matches = [n for n in names if n == name] or [n for n in names if n.startswith(name)]
        if len(matches) > 1:
            _usage_error(f"ambiguous option: {name} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token.startswith("-h"):
        return "--help", token[2:] or None
    digits = token[1:]
    if " " in token or digits.replace(".", "", 1).isdecimal() and not digits.endswith("."):
        return None
    return None, None


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The subcommand of `argv`, as ``command``, and the values of its
    options, named without the dashes ("-" as "_").  Read as argparse reads
    it: -h and a malformed option end the reading where they stand, while
    an unknown token or a missing option is reported at the end; an
    ambiguous prefix is refused before any option is read, and nothing
    after "--" is accepted.  Before the subcommand, only -h is an option."""
    argv = list(argv)
    command, options, end = None, {"--help": None}, len(argv)  # None: the kind of --help
    given, unknown = {}, []
    i = 0
    while i < end:
        token = argv[i]
        option = _option(token, options)
        i += 1
        if option is None and command is None:
            command = token
            if command not in OPTIONS:
                _usage_error(f"unknown subcommand {command!r}: expected count, enumerate or verify")
            options = {"--help": None, **OPTIONS[command]}
            end = argv.index("--", i) if "--" in argv[i:] else end
            for later in argv[i:end]:
                _option(later, options)  # refuses an ambiguous prefix
            continue
        if option is None or option[0] is None:
            unknown.append(token)
            continue
        name, value = option
        kind = options[name]
        if kind is bool or kind is None:
            if value is not None:
                _usage_error(f"{name} takes no value, got {value!r}")
            if kind is None:
                print(USAGE, end="")
                sys.stdout.flush()  # within main's reach, where a closed pipe is caught
                raise SystemExit(EXIT_OK)
            value = True
        elif value is None:
            taken = list(takewhile(lambda t: _option(t, options) is None, argv[i:end]))[: None if kind is list else 1]
            if not taken:
                _usage_error(f"{name} needs a value")
            i += len(taken)
            value = taken if kind is list else taken[0]
        elif kind is list:
            value = [value]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"{name} needs an integer, got {value!r}")
        elif type(kind) is tuple and value not in kind:
            _usage_error(f"{name} must be one of {', '.join(kind)}, got {value!r}")
        rivals = [n for n in ONE_OF[command] if n != name and n in given]
        if name in ONE_OF[command] and rivals:
            _usage_error(f"{name} is not allowed with {rivals[0]}")
        given[name] = value
    if command is None:
        _usage_error("expected a subcommand: count, enumerate or verify")
    if unknown or end < len(argv):
        _usage_error(f"unrecognized arguments: {' '.join(map(repr, unknown + argv[end:]))}")
    if not given.keys() & ONE_OF[command]:
        _usage_error(f"{' or '.join(ONE_OF[command])} is required")
    values = {}
    for name, kind in OPTIONS[command].items():
        default = kind[0] if type(kind) is tuple else False if kind is bool else None
        values[name[2:].replace("-", "_")] = given.get(name, default)
    return SimpleNamespace(command=command, **values)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        code = {"count": cmd_count, "enumerate": cmd_enumerate, "verify": cmd_verify}[args.command](args)
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
