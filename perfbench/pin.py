"""Print the sha256 of every request's output as JSON, for perfbench/digests.json.

    python3 perfbench/pin.py > perfbench/digests.json

Pins are taken once, at the commit the benchmark was defined on, and
checked on every run; regenerate them only when an output is meant to
change.  The classify task is pinned on its representative tables, since
its relabelled copies come from the seed.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

from run import SCRATCH, SRC, command, child_env, spawn

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402


def main() -> int:
    run_dir = SCRATCH / "pin"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        inputs = run_dir / "inputs.json"
        inputs.write_text(json.dumps({"classify": [workloads.classify_inputs(random.Random(0))]}))
        pins = {}
        for req in workloads.all_requests(str(inputs)):
            _, _, code, _ = spawn(command(req, False), child_env(None, None), run_dir / "out", run_dir / "err", 600)
            out = (run_dir / "out").read_bytes()
            if req.kind == "classify":
                pins[req.key] = json.loads(out)["reps_sha256"]
            else:
                pins[req.key] = workloads.sha256(out)
            print(f"{req.key}: exit {code}", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(pins, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
