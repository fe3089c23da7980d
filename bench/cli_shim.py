"""Traced entry point for the gtrees command, used by the cli workload's traced run.

    python bench/cli_shim.py STATS.json ARG...

runs `gtrees ARG...` exactly as the console script does, with every layer
wrapped in spans, and writes the span totals and records to STATS.json when
the command ends.  Like cli_child.py it ticks from the start and writes its
ticks to STATS.json as well.  `gtrees` must be importable (the benchmark
puts `src` on PYTHONPATH).
"""

import json
import sys

from hostclock import Ticker
from tracer import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    ticker = Ticker()
    ticker.start()
    import gtrees.cli  # after the ticker starts, so that the import is calibrated too

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    code = 0
    try:
        code = gtrees.cli.main(argv)
    except SystemExit as exc:  # argparse exits on bad arguments
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.enabled = False
        ticker.stop()
        tracer.uninstall()
        stats = {"top_s": tracer.top_s, "layers": tracer.layer_stats(), "records": tracer.records}
        with open(stats_path, "w") as fh:
            json.dump({**stats, "ticks": [ticker.starts, ticker.durations]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
