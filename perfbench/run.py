"""paramedial's benchmark: seeded closed-loop workloads over the CLI and the library.

    python3 perfbench/run.py --workload gl2-sweep --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository (it needs ``src/``).  One client
sends one request at a time and waits for it: a request is one child
process (``python -m paramedial ...`` or a library task in
``perfbench/child.py``), timed from spawn to exit.  Whole passes of the
workload's plan run while the next, as long as the last, still fits in
``--seconds``.  Every reply is
checked (closed-form counts, JSON round trips, pinned sha256 digests);
a reply that fails a check counts in ``failed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and prints the per-layer metrics, computed from
spans recorded around calls into each module (see tracer.py); the spans are
written to ``.bench_build/perfbench/`` when the run ends.  The last line of
standard output is one JSON object; the lines before it explain it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from tracer import check_nesting, clock, fit_exponent, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 5
MAX_PASSES = 64
REQUEST_TIMEOUT_S = 60.0
RUN_BUDGET_S = 165.0  # no request may run past this, so the run ends within 180 s
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MB = 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class Reply:
    req: object
    traced: bool
    start: float
    end: float
    code: int
    rss_mb: float
    out_bytes: int
    error: str | None
    items: int
    spans: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def child_env(cache_dir: Path | None, spans_path: Path | None) -> dict:
    """The run environment: src on the path, a cache only where the workload asks."""
    env = {k: v for k, v in os.environ.items() if k not in ("PARAMEDIAL_CACHE_DIR", "PERFBENCH_SPANS")}
    env["PYTHONPATH"] = str(SRC)
    if cache_dir is not None:
        env["PARAMEDIAL_CACHE_DIR"] = str(cache_dir)
    if spans_path is not None:
        env["PERFBENCH_SPANS"] = str(spans_path)
    return env


def spawn(cmd: list[str], env: dict, out_path: Path, err_path: Path, timeout: float):
    """Run one child to completion: (start, end, exit code, peak RSS in MB).

    Peak RSS comes from this child's own rusage (os.wait4), not from
    RUSAGE_CHILDREN, which keeps the high-water mark of every earlier child.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = clock()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], timeout)[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        end = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage.ru_maxrss / MB


def command(req, traced: bool) -> list[str]:
    if req.kind == "cli" and not traced:
        return [sys.executable, "-m", "paramedial", *req.args]
    return [sys.executable, str(BENCH / "child.py"), req.kind, *req.args]


# -- set-up ---------------------------------------------------------------------


def set_up(workloads, workload: str, seed: int, run_dir: Path) -> list:
    """Inputs from the seed, the run directory, bytecode, and one warm import."""
    run_dir.mkdir(parents=True)
    rng = random.Random(seed)
    inputs = run_dir / "inputs.json"
    plans = workloads.plans(workload, rng, MAX_PASSES, str(inputs))
    classify = [workloads.classify_inputs(rng) for _ in range(MAX_PASSES)] if workload == "tables-oracle" else []
    inputs.write_text(json.dumps({"classify": classify}))
    (run_dir / "cache").mkdir()
    for d in (SRC / "paramedial", BENCH):
        if not compileall.compile_dir(d, force=True, quiet=1):
            raise RuntimeError(f"bytecode compilation failed in {d}")
    code = subprocess.call([sys.executable, "-c", "import paramedial.cli"], env=child_env(None, None), cwd=ROOT)
    if code != 0:
        raise RuntimeError("warm-up import of paramedial.cli failed")
    return plans


# -- the closed loop ------------------------------------------------------------


def run_request(checker, req, traced: bool, cache_dir, run_dir: Path, deadline: float) -> Reply:
    out_path, err_path, spans_path = run_dir / "out", run_dir / "err", run_dir / "spans.json"
    spans_path.unlink(missing_ok=True)
    env = child_env(cache_dir, spans_path if traced else None)
    timeout = max(0.0, min(REQUEST_TIMEOUT_S, deadline - clock()))
    start, end, code, rss = spawn(command(req, traced), env, out_path, err_path, timeout)
    out, err = out_path.read_bytes(), err_path.read_bytes()
    try:
        error, items = checker.check(req, code, out, err)
    except (ValueError, KeyError, TypeError, IndexError) as exc:  # malformed output
        error, items = f"unreadable output: {exc!r}", 0
    reply = Reply(req, traced, start, end, code, rss, len(out), error, items)
    if traced:
        if spans_path.exists():
            reply.spans = json.loads(spans_path.read_text())
        elif error is None:
            reply.error = "traced child wrote no spans"
    return reply


def run_passes(checker, workload, plans, seconds, trace, run_dir) -> tuple[list[list[Reply]], bool]:
    """Whole passes while the next one, as long as the last, fits in `seconds`.

    Returns the passes of replies, and whether the run kept to its budget.
    """
    passes: list[list[Reply]] = []
    start = last = clock()
    deadline = start + RUN_BUDGET_S
    for i, reqs in enumerate(plans):
        now = clock()
        if passes and now + (now - last) > start + seconds:
            break
        last = now
        for traced in (False, True) if trace else (False,):
            cache = None
            if workload == "cli-session":
                cache = run_dir / "cache" / f"pass{i}-{'traced' if traced else 'plain'}"
            replies = [run_request(checker, r, traced, cache, run_dir, deadline) for r in reqs]
            passes.append(replies)
        if clock() >= deadline:
            return passes, False
    return passes, True


# -- metrics ----------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, str]:
    """Highest ladder percentile with at least ten samples beyond it, else the max."""
    xs = sorted(values)
    n = len(xs)
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return xs[rank - 1], f"p{q:g}"
    return xs[-1], "max"


def items_of(workload, reply: Reply) -> int:
    if reply.error is not None:
        return 0
    return 1 if workload == "cli-session" else reply.items


ITEM_UNITS = {
    "cli-session": "requests",
    "tables-oracle": "tables checked + isomorphism pairs decided + classes verified by the oracle",
}


def end_to_end(workload, passes: list[list[Reply]], setup_s: float) -> tuple[dict, list[str]]:
    """Every pass sends the same requests, so each request slot has one time
    per pass.  The latency figures are taken over the slots' mean times, so
    each of them averages over the whole run: the host's speed drifts in
    phases of seconds to tens of seconds, and a figure read off one pass
    (or a median of a few) reports the phase that pass fell in."""
    slot_times = defaultdict(list)
    for p in passes:
        seen = Counter()
        for r in p:
            seen[r.req.key] += 1
            slot_times[(r.req.key, seen[r.req.key])].append(r.seconds)
    slot_means = [statistics.fmean(t) for t in slot_times.values()]
    replies = [r for p in passes for r in p]
    items = sum(items_of(workload, r) for r in replies)
    busy_s = sum(r.seconds for r in replies)
    tail_s, tail_q = tail(slot_means)
    metrics = {
        "items_per_s": (items / busy_s, "1/s"),
        "request_p50_s": (statistics.median(slot_means), "s"),
        "request_tail_s": (tail_s, "s"),
        "peak_rss_mb": (max(r.rss_mb for r in replies), "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = [
        f"items_per_s: {items / len(passes):g} {ITEM_UNITS.get(workload, 'classes')} a pass; "
        f"{items:g} over {busy_s:.4f} s of request time (spawn to exit) in {len(passes)} passes",
        f"request_p50_s, request_tail_s: median and {tail_q} of the mean latencies of the "
        f"n={len(slot_means)} requests of a pass, each a mean over {len(passes)} passes",
    ]
    return metrics, notes


def flatten_spans(replies: list[Reply]) -> list[dict]:
    """One list of spans: a root 'request' span per reply, child spans under it."""
    spans = []
    for rid, r in enumerate(replies):
        root = len(spans)
        spans.append({"name": "request", "start": r.start, "end": r.end, "parent": None,
                      "request": rid, "key": r.req.key, "attrs": {}})
        for name, start, end, parent, attrs in r.spans:
            spans.append({"name": name, "start": start, "end": end,
                          "parent": root if parent is None else root + 1 + parent,
                          "request": rid, "attrs": attrs})
    return spans


def per_layer(plain: list[Reply], traced: list[Reply], n_passes: int) -> tuple[dict, list[str], list[dict], str | None]:
    spans = flatten_spans(traced)
    problem = check_nesting(spans)
    own = self_times(spans)
    total, self_s, calls = defaultdict(float), defaultdict(float), Counter()
    attr_sum = defaultdict(float)
    gl2_sizes, cyclic_sizes = defaultdict(list), defaultdict(list)
    import_s, orbit_parents = [], Counter()
    for s, o in zip(spans, own):
        name, dur, a = s["name"], s["end"] - s["start"], s["attrs"]
        total[name] += dur
        self_s[name] += o
        calls[name] += 1
        if name == "enum_gl2.y_phi" and a.get("irred0"):
            total["enum_gl2.y_phi_irred0"] += dur
        elif name == "oracle.orbits":
            attr_sum["points"] += a["points"]
            attr_sum["act_calls"] += a["act_calls"]
            orbit_parents[spans[s["parent"]]["name"]] += 1
        elif name == "affine.is_paramedial":
            attr_sum["quads"] += a["n"] ** 4
        elif name == "enum_cyclic.enumerate_cyclic":
            attr_sum["forms"] += a["forms"]
            if a["p"] != 2:
                cyclic_sizes[a["n"]].append(dur)
        elif name == "enum_gl2.enumerate_gl2" and a["p"] != 2:
            gl2_sizes[a["p"]].append(dur)
        elif name == "cli._cache_load" and a["enabled"]:
            attr_sum["hits" if a["hit"] else "misses"] += 1
        elif name == "cli.import":
            import_s.append(dur)

    def per_pass(x):
        return x / n_passes

    m = {}
    for span in ("enum_gl2.enumerate_gl2", "enum_gl2.y_phi", "oracle.classify_triples", "cli.main",
                 "cli.render_records"):
        m[f"{span}_s"] = (per_pass(total[span]), "s")
        m[f"{span}_self_s"] = (per_pass(self_s[span]), "s")
    m["enum_gl2.y_phi_irred0_s"] = (per_pass(total["enum_gl2.y_phi_irred0"]), "s")
    for span in ("enum_gl2.y_phi", "enum_gl2.sqrt_set", "enum_gl2.coset_reps_for", "affine.is_simple",
                 "modring.unit_group", "oracle.table_isomorphic"):
        m[f"{span}_calls"] = (per_pass(calls[span]), "count")
    for span in ("enum_gl2.sqrt_set", "enum_gl2.coset_reps_for", "enum_gl2.conjugacy_classes",
                 "enum_gl2.records", "oracle.orbits", "oracle.table_isomorphic", "affine.is_simple",
                 "affine.materialize", "affine.is_latin", "affine.is_paramedial",
                 "enum_cyclic.enumerate_cyclic", "modring.unit_group"):
        m[f"{span}_s"] = (per_pass(total[span]), "s")
    acts = attr_sum["act_calls"]
    lookups = attr_sum["hits"] + attr_sum["misses"]
    m.update({
        "enum_gl2.exponent": (fit_exponent(gl2_sizes), "1"),
        "oracle.orbits_act_calls": (per_pass(acts), "count"),
        "oracle.orbits_useful_frac": (attr_sum["points"] / acts if acts else 0.0, "1"),
        "affine.is_paramedial_quads": (per_pass(attr_sum["quads"]), "count"),
        "enum_cyclic.forms": (per_pass(attr_sum["forms"]), "count"),
        "enum_cyclic.exponent": (fit_exponent(cyclic_sizes), "1"),
        "cli.import_s": (statistics.median(import_s) if import_s else 0.0, "s"),
        "cli.output_bytes": (per_pass(sum(r.out_bytes for r in traced if r.req.kind == "cli")), "B"),
        "cli.cache_hits": (per_pass(attr_sum["hits"]), "count"),
        "cli.cache_misses": (per_pass(attr_sum["misses"]), "count"),
        "cli.cache_hit_frac": (attr_sum["hits"] / lookups if lookups else 0.0, "1"),
        "trace.overhead_frac": (sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1, "1"),
    })
    wall = sum(r.seconds for r in traced)
    outside = sum(o for s, o in zip(spans, own) if s["parent"] is None)
    notes = [
        f"per-layer times and counts are per traced pass ({n_passes} traced passes); "
        "cli.import_s is the median per CLI request; affine.is_paramedial_quads is computed as sum n^4",
        f"self times of all spans sum to {sum(own):.6f} s of {wall:.6f} s traced request time; "
        f"{outside:.6f} s of it lies outside every layer span (interpreter start-up and exit)",
        f"oracle.orbits parents: {dict(orbit_parents)}",
        "exponents fit log time against log p (enum_gl2) or log n (enum_cyclic, odd p) over "
        f"{sorted(gl2_sizes)} and {sorted(cyclic_sizes)}",
    ]
    return m, notes, spans, problem


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run still kills and reaps its child (see spawn) and
    # removes its run directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "paramedial" / "__init__.py").is_file():
        print(f"error: {SRC}/paramedial not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    checker = workloads.Checker(json.loads((BENCH / "digests.json").read_text()))
    run_dir = SCRATCH / f"run-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(run_dir, ignore_errors=True)
            t0 = clock()
            plans = set_up(workloads, args.workload, args.seed, run_dir)
            setup_times.append(clock() - t0)
        passes, in_budget = run_passes(checker, args.workload, plans, args.seconds, args.trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    replies = [r for p in passes for r in p]
    failed = [r for r in replies if r.error is not None]
    notes = [f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
             f"{len(replies)} requests, {len(failed)} failed (failed_frac {len(failed) / len(replies):.4f})"]
    notes += [f"FAILED {r.req.key}: {r.error}" for r in failed[:10]]
    if not in_budget:
        notes.append(f"stopped at the {RUN_BUDGET_S:.0f} s run budget")
    correct = not failed and in_budget
    if args.trace:
        plain = [r for r in replies if not r.traced]
        traced = [r for r in replies if r.traced]
        metrics, more, spans, problem = per_layer(plain, traced, sum(1 for p in passes if p[0].traced))
        if problem:
            correct = False
            notes.append(f"trace is unsound: {problem}")
        SCRATCH.mkdir(parents=True, exist_ok=True)
        out = SCRATCH / f"spans-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps(spans))
        notes += more + [f"spans written to {out.relative_to(ROOT)}"]
    else:
        metrics, more = end_to_end(args.workload, passes, statistics.median(setup_times))
        notes += more + [f"setup_s: median of {SETUP_REPEATS} set-ups"]
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(replies),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
