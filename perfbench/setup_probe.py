"""The set-up a verification pays before its first check, in a fresh process.

``python3 perfbench/setup_probe.py <workload-config> <seed>`` (with ``src`` on
``PYTHONPATH``) imports the package, then samples the parameters and builds
the representation of each of the workload's specializations, plus the
calibrated kit when one of its suites uses a kit.  ``run.py`` times the
process from spawn to exit.
"""

import sys

from heckeverify import cli

KIT_SUITES = {"prop2", "explore-generic"}


def main() -> None:
    config = cli.config_from_dict(cli.load_config(sys.argv[1]), seed_override=int(sys.argv[2]))
    ctx = cli.SuiteContext(config)
    for idx in range(cli.SPECIALIZATIONS):
        ctx.rep(idx)
        if KIT_SUITES & set(config.suites):
            ctx.kit(idx)


if __name__ == "__main__":
    main()
