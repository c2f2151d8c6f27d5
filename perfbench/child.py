"""One benchmark invocation of the cmfields CLI, in a fresh interpreter.

    python3 perfbench/child.py --report PATH --spawn-ns NS --item NAME
        [--trace SPANS_PATH] -- <cli arguments>

Runs `cmfields.cli.main` on the arguments with the real stdout, so the
parent sees exactly the bytes a user would.  Every call into the item
function (one table row or one sweep check) is timed.  The report (JSON)
holds the set-up time measured from NS, the parent's CLOCK_MONOTONIC
reading taken just before this process was spawned, the item times, the
exit code and the peak RSS; with --trace, also the per-layer summary.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# item name -> (module, attribute) of the call that produces one item
ITEM_CALLS = {
    "hminus_row": ("cli", "minus_class_number"),
    "check_v4": ("theorems", "check_v4"),
    "check_metsankyla": ("theorems", "check_metsankyla"),
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--report", required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--item", choices=sorted(ITEM_CALLS), required=True)
    ap.add_argument("--trace")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    import cmfields.cli

    cmfields_dir = Path(cmfields.cli.__file__).resolve().parent
    if cmfields_dir != ROOT / "src" / "cmfields":
        raise SystemExit(f"imported cmfields from {cmfields_dir}, not from this checkout")

    from tracer import Tracer, load_modules, rebind

    tracer = None
    if opts.trace:
        tracer = Tracer()
        tracer.install()

    modules = load_modules()
    mod, attr = ITEM_CALLS[opts.item]
    item_fn = getattr(modules[mod], attr)
    starts: list[int] = []
    ends: list[int] = []
    raised: list[int] = []
    first_item_ns = []

    def timed_item(*args, **kwargs):
        if not first_item_ns:
            first_item_ns.append(time.monotonic_ns())
        index = len(starts)
        if tracer is not None:
            tracer.current_item = index
        t0 = time.perf_counter_ns()
        try:
            return item_fn(*args, **kwargs)
        except BaseException:
            raised.append(index)
            raise
        finally:
            starts.append(t0)
            ends.append(time.perf_counter_ns())
            if tracer is not None:
                tracer.current_item = -1

    rebind(modules, item_fn, timed_item)

    try:
        rc = modules["cli"].main(cli_args)
    finally:
        sys.stdout.flush()
    report = {
        "rc": rc,
        "setup_ns": first_item_ns[0] - opts.spawn_ns if first_item_ns else None,
        "item_start_ns": starts,
        "item_end_ns": ends,
        "raised": raised,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.write_spans(opts.trace)
    Path(opts.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
