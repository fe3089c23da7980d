"""Entry point for the gtrees command in the cli workload's untraced passes.

    python bench/cli_child.py TICKS.json ARG...

runs `gtrees ARG...` exactly as the console script does, with host-speed
ticks (hostclock.py) running from before `import gtrees`, and writes the
ticks to TICKS.json when the command ends.  The benchmark calibrates the
command's time by them, that is by the speed of the CPU the command ran on.
`gtrees` must be importable (the benchmark puts `src` on PYTHONPATH).
"""

import json
import sys

from hostclock import Ticker


def main() -> int:
    ticks_path, argv = sys.argv[1], sys.argv[2:]
    ticker = Ticker()
    ticker.start()
    import gtrees.cli  # after the ticker starts, so that the import is calibrated too

    code = 0
    try:
        code = gtrees.cli.main(argv)
    except SystemExit as exc:  # argparse exits on bad arguments
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        ticker.stop()
        with open(ticks_path, "w") as fh:
            json.dump([ticker.starts, ticker.durations], fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
