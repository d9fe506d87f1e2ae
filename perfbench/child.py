"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode MODE [--spans PATH]

MODE is ``setup`` (set-up only), ``pass`` (set-up, then the timed pass) or
``traced`` (the same with every entry point wrapped; the spans go to PATH).
Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (does not import the library)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "pass", "traced"])
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    setup, run = workloads.WORKLOADS[args.workload]
    out: dict = {"verdicts": {}, "errors": {}, "fatal": None, "report_sha256": None}

    def timed_pass(state):
        t0 = time.perf_counter()
        try:
            text = run(state, args.seed, out["verdicts"], out["errors"])
        except Exception as e:  # counted as failed verdicts by the runner
            out["fatal"] = f"{type(e).__name__}: {e}"
            text = None
        out["pass_s"] = time.perf_counter() - t0
        if text is not None:
            out["report_sha256"] = hashlib.sha256(text.encode()).hexdigest()

    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            with tracer.span("setup"):
                state = setup(args.seed)
            with tracer.span("pass"):
                timed_pass(state)
        finally:
            tracing.uninstall(restore)
        out["layers"] = tracing.summarize(tracer)
        out["accounting"] = tracing.accounting(tracer)
        if args.spans:
            tracer.dump(args.spans)
    else:
        t0 = time.perf_counter()
        state = setup(args.seed)
        out["setup_s"] = time.perf_counter() - t0
        if args.mode == "pass":
            timed_pass(state)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["python"] = sys.version.split()[0]
    out["numpy"] = sys.modules["numpy"].__version__ if "numpy" in sys.modules else None
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
