"""``heckeverify`` as its installed console script runs it, with ``run_suite`` timed.

    python3 perfbench/launch.py <timing-file> suite --config ... --seed ... --out ...

runs ``heckeverify.cli:main`` on the arguments after the timing file, as the
``heckeverify`` command does, and writes the seconds spent in ``run_suite``
to the timing file.  ``run.py`` times the whole process from spawn to exit.
"""

import sys
import time

from heckeverify import cli


def main() -> int:
    timing_path, argv = sys.argv[1], sys.argv[2:]
    run_suite = cli.run_suite
    seconds = []

    def timed_run_suite(config):
        t0 = time.perf_counter()
        try:
            return run_suite(config)
        finally:
            seconds.append(time.perf_counter() - t0)

    cli.run_suite = timed_run_suite
    code = cli.main(argv)
    with open(timing_path, "w", encoding="utf-8") as fh:
        fh.write(repr(seconds[0]))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
