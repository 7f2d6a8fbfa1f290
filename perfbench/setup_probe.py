"""Set-up probe: what a fresh interpreter pays before cupgame's first op.

    python3 perfbench/setup_probe.py <workload> <seed>

run.py starts it several times in fresh interpreters.  It times importing
cupgame and cupgame.cli and building the workload's op list, scaled to
host speed, and prints those seconds.  Before the clock starts it loads
only built-in modules, so every module cupgame loads is counted unless the
interpreter's start-up loaded it already.  The op list is built, not run,
so its scratch directory is never made.
"""

import sys
from os import path

HERE = path.dirname(path.abspath(__file__))
sys.path[:0] = [path.join(path.dirname(HERE), "src"), HERE]

from speed import SpeedSampler  # noqa: E402  (built-in modules only)

sampler = SpeedSampler()
sampler.start()
import cupgame.cli  # noqa: E402,F401
import workloads  # noqa: E402
from pathlib import Path  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(HERE) / ".unused")
print(sampler.stop()[1])
