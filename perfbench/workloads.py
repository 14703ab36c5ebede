"""Request plans for the four workloads, and the check applied to every reply.

A plan is one pass: a fixed multiset of requests whose order comes from the
seed, as do the orders and groups ``cli-session`` draws once per run from a
pool.  Every pass of a workload costs the same work, so a run that measures
whole passes reports the same mix whatever the seed.

The checks need the library itself (closed forms, ``form_from_dict``),
so this module imports ``paramedial`` from ``src``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass

from paramedial.affine import ClassRecord
from paramedial.cli import form_from_dict, record_to_dict
from paramedial.enum_cyclic import UnsupportedOrder, closed_form_count, gl2_closed_count, pq_total
from paramedial.modring import Modulus

WORKLOADS = ("gl2-sweep", "cyclic-sweep", "tables-oracle", "cli-session")

GL2_SWEEP = (7, 11, 13, 17)
CYCLIC_SWEEP = ((101, 2), (3, 6), (5, 4), (2, 10))
TABLE_GROUPS = (("elem2", "5"), ("cyclic", "7", "2"))
ORDER9_GROUPS = (("elem2", "3"), ("cyclic", "3", "2"))
ORACLE_GROUP = ("elem2", "5")

# cli-session: the seed draws ORDERS_PER_RUN orders from ORDER_POOL and
# GROUPS_PER_RUN groups for `count --group` once per run.  Each pass sends
# those counts, the documented exit-2 order 27, every VERIFY_GROUPS entry, and
# every ENUMERATE_SET entry twice: the first sighting misses the pass's fresh
# cache and writes it, the second replays it.  That is 40 requests a pass.
ORDER_POOL = (2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 18, 20, 25, 35, 36, 45, 49,
              50, 63, 98, 100, 121, 169, 225, 1001)
UNSUPPORTED_ORDER = 27
ORDERS_PER_RUN = 9
GROUP_POOL = (("cyclic", "3", "1"), ("cyclic", "3", "2"), ("cyclic", "5", "3"), ("cyclic", "2", "4"),
              ("cyclic", "7", "2"), ("cyclic", "101", "2"), ("cyclic", "2", "20"), ("elem2", "2"),
              ("elem2", "3"), ("elem2", "5"), ("elem2", "7"), ("elem2", "31"), ("elem2", "101"))
GROUPS_PER_RUN = 4
VERIFY_GROUPS = (("elem2", "3"), ("elem2", "5"), ("cyclic", "3", "2"), ("cyclic", "5", "2"),
                 ("cyclic", "2", "4"), ("cyclic", "7", "1"))
ENUMERATE_SET = ((("elem2", "2"), "json"), (("elem2", "3"), "json"), (("elem2", "5"), "json"),
                 (("cyclic", "2", "4"), "json"), (("cyclic", "3", "2"), "json"),
                 (("cyclic", "5", "3"), "json"), (("elem2", "5"), "csv"), (("cyclic", "5", "3"), "csv"),
                 (("elem2", "3"), "tables"), (("cyclic", "3", "2"), "tables"))

# First 16 hex digits of sha256(enumerate --format json), from ROADMAP.md.
GOLDEN = {
    "enumerate --group elem2 2 --format json": "54dd3ed9f1da81cd",
    "enumerate --group elem2 3 --format json": "4beb0985b19e15b7",
    "enumerate --group elem2 5 --format json": "b7447c63d59583fd",
    "enumerate --group elem2 7 --format json": "5d03dacf77f8384c",
    "enumerate --group cyclic 2 4 --format json": "df75ddad016859e1",
    "enumerate --group cyclic 3 2 --format json": "2ad2938746b3ed59",
    "enumerate --group cyclic 5 3 --format json": "051154c789c39c1c",
}


@dataclass(frozen=True)
class Request:
    """One request: ``kind`` is "cli" (python -m paramedial) or a child.py task."""

    kind: str
    args: tuple[str, ...]
    group: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        """Name under which the output digest is pinned (no per-run paths)."""
        if self.kind == "cli":
            return " ".join(self.args)
        return f"{self.kind} {' '.join(self.group)}".strip()


def _enumerate(group, fmt: str) -> Request:
    return Request("cli", ("enumerate", "--group", *group, "--format", fmt), group)


def _verify(group, level: str) -> Request:
    return Request("cli", ("verify", "--group", *group, "--level", level), group)


def _count_order(n: int) -> Request:
    return Request("cli", ("count", "--order", str(n)))


def _count_group(group) -> Request:
    return Request("cli", ("count", "--group", *group), group)


def plans(workload: str, rng: random.Random, n_passes: int, inputs_path: str) -> list[list[Request]]:
    """The requests of each pass, in order: the same multiset every pass."""
    if workload == "gl2-sweep":
        reqs = [_enumerate(("elem2", str(p)), "json") for p in GL2_SWEEP]
    elif workload == "cyclic-sweep":
        reqs = [_enumerate(("cyclic", str(p), str(k)), "json") for p, k in CYCLIC_SWEEP]
    elif workload == "tables-oracle":
        reqs = [Request("tables", g, g) for g in TABLE_GROUPS] + [_verify(ORACLE_GROUP, "oracle")]
    elif workload == "cli-session":
        reqs = [_count_order(n) for n in rng.sample(ORDER_POOL, ORDERS_PER_RUN) + [UNSUPPORTED_ORDER]]
        reqs += [_count_group(g) for g in rng.sample(GROUP_POOL, GROUPS_PER_RUN)]
        reqs += [_verify(g, "fast") for g in VERIFY_GROUPS]
        reqs += [_enumerate(g, fmt) for g, fmt in ENUMERATE_SET for _ in range(2)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out = []
    for i in range(n_passes):
        order = reqs + ([Request("classify", (inputs_path, str(i)))] if workload == "tables-oracle" else [])
        rng.shuffle(order)
        out.append(order)
    return out


def classify_inputs(rng: random.Random) -> list[list]:
    """One relabelled copy of each order-9 representative: (source, permutation)."""
    n_reps = sum(_closed_count(g) for g in ORDER9_GROUPS)
    copies = []
    for src in range(n_reps):
        perm = list(range(9))
        rng.shuffle(perm)
        copies.append([src, perm])
    rng.shuffle(copies)
    return copies


def all_requests(inputs_path: str) -> list[Request]:
    """Every request any seed can produce, for pinning digests."""
    reqs = [r for w in ("gl2-sweep", "cyclic-sweep", "tables-oracle")
            for r in plans(w, random.Random(0), 1, inputs_path)[0]]
    reqs += [_count_order(n) for n in ORDER_POOL + (UNSUPPORTED_ORDER,)]
    reqs += [_count_group(g) for g in GROUP_POOL]
    reqs += [_verify(g, "fast") for g in VERIFY_GROUPS]
    reqs += [_enumerate(g, fmt) for g, fmt in ENUMERATE_SET]
    return reqs


# -- checks -------------------------------------------------------------------


def _closed_count(group) -> int:
    if group[0] == "cyclic":
        return closed_form_count(Modulus(int(group[1]), int(group[2])))
    return gl2_closed_count(int(group[1]))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Checks replies against closed forms, round trips and pinned digests.

    ``check`` returns (error or None, items of work the reply completed).
    A reply whose bytes were already fully checked in this process is only
    compared by digest.
    """

    def __init__(self, pins: dict[str, str]):
        self.pins = pins
        self._checked: dict[tuple[str, str, int], int] = {}

    def check(self, req: Request, code: int, out: bytes, err: bytes) -> tuple[str | None, int]:
        if req.kind == "classify":
            return self._classify(code, out)
        digest = sha256(out)
        if req.key not in self.pins:
            return f"no pinned digest for {req.key!r}", 0
        if self.pins[req.key] != digest:
            return f"digest {digest[:16]} != pinned {self.pins[req.key][:16]}", 0
        if req.key in GOLDEN and not digest.startswith(GOLDEN[req.key]):
            return "golden digest mismatch", 0
        memo = (req.key, digest, code)
        if memo in self._checked:
            return None, self._checked[memo]
        error, items = self._content(req, code, out, err)
        if error is None:
            self._checked[memo] = items
        return error, items

    def _content(self, req: Request, code: int, out: bytes, err: bytes) -> tuple[str | None, int]:
        if req.kind == "tables":
            if code != 0:
                return f"exit {code}", 0
            res = json.loads(out)
            n = _closed_count(req.group)
            if not res["tables"] == res["latin"] == res["paramedial"] == n:
                return f"table checks {res} for {n} classes", 0
            return None, n
        command = req.args[0]
        if command == "count" and req.args[1] == "--order":
            try:
                expected = pq_total(int(req.args[2]))
            except UnsupportedOrder:
                lines = err.decode().splitlines()
                ok = code == 2 and not out and len(lines) == 1 and lines[0].startswith("error:")
                return (None, 0) if ok else (f"unsupported order gave exit {code}", 0)
            return self._count(code, out, expected)
        if command == "count":
            return self._count(code, out, _closed_count(req.group))
        if code != 0:
            return f"exit {code}", 0
        if command == "verify":
            if out.decode().splitlines()[-1:] != ["all checks passed"]:
                return "verify did not pass", 0
            return None, _closed_count(req.group)
        return self._records(req.group, req.args[-1], out)

    @staticmethod
    def _count(code: int, out: bytes, expected: int) -> tuple[str | None, int]:
        if code != 0 or out.strip() != str(expected).encode():
            return f"count {out.strip()!r} exit {code}, expected {expected}", 0
        return None, 1

    @staticmethod
    def _records(group, fmt: str, out: bytes) -> tuple[str | None, int]:
        expected = _closed_count(group)
        text = out.decode()
        if fmt == "json":
            records = json.loads(text)
            for d in records:
                rec = ClassRecord(form_from_dict(d), d["case"], d["simple"])
                if record_to_dict(rec) != d:
                    return f"record does not round-trip: {d}", 0
            n = len(records)
        elif fmt == "csv":
            n = len(list(csv.reader(io.StringIO(text)))) - 1
        else:
            n = sum(1 for line in text.splitlines() if line.startswith("# group="))
        if n != expected:
            return f"{n} records, closed form says {expected}", 0
        return None, n

    def _classify(self, code: int, out: bytes) -> tuple[str | None, int]:
        if code != 0:
            return f"exit {code}", 0
        res = json.loads(out)
        if res["reps_sha256"] != self.pins.get("classify"):
            return "order-9 representative tables differ from the pinned digest", 0
        reps, ids = res["reps"], res["ids"]
        if ids[:reps] != list(range(reps)):
            return "representatives are not pairwise non-isomorphic", 0
        if ids[reps:] != res["sources"]:
            return "a relabelled copy left its source class", 0
        # classify_tables compares each table with the classes found so far,
        # stopping at the first match: that many isomorphism pairs decided.
        pairs = sum(range(reps)) + sum(i + 1 for i in res["sources"])
        return None, pairs
