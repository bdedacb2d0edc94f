"""Run the schedule service with the benchmark's layer spans installed.

    python3 perfbench/serve_traced.py --layers-out layers.json --state-dir DIR --quiet

Every other argument goes to ``python -m repro.service``.  Each request
worker call is one operation.  When the server exits, the per-layer metrics
of its spans (per request) are written to ``--layers-out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--layers-out", required=True)
    args, rest = ap.parse_known_args()

    from repro.service.__main__ import main as serve
    from repro.service.server import ScheduleService

    from perfbench.trace import CounterDelta, Tracer, layer_metrics

    depth = [0]
    worker = ScheduleService._do_schedule

    def sampled(self, msg):
        depth[0] = max(depth[0], self.stats()["queue_depth"])
        return worker(self, msg)

    ScheduleService._do_schedule = sampled
    tracer = Tracer().install(server=True)
    counters = CounterDelta()
    try:
        return serve(rest)
    finally:
        tracer.uninstall()
        layers = layer_metrics(tracer.spans)
        layers.update(counters.per_op(tracer.spans))
        layers["service.queue_depth_max"] = float(depth[0])
        with open(args.layers_out, "w") as f:
            json.dump(layers, f)


if __name__ == "__main__":
    raise SystemExit(main())
