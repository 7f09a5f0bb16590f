"""Time one fresh-process set-up of a chemodisk run and print the seconds.

Set-up is importing chemodisk, parsing the config, and building the grid and
the initial profile.  Usage, with ``src`` on ``PYTHONPATH``:

    python3 bench/setup_probe.py '{"mass": "8pi"}'
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import chemodisk  # noqa: E402,F401
from chemodisk.config import parse_config  # noqa: E402


def main() -> None:
    cfg = parse_config(json.loads(sys.argv[1]))
    cfg.initial_profile(cfg.grid())
    print(repr(time.perf_counter() - _START))


if __name__ == "__main__":
    main()
