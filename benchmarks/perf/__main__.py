"""``python -m benchmarks.perf ...`` -> ``python benchmarks/perf/run.py ...``.

Importing the ``benchmarks`` package has already imported ``repro`` and numpy,
so the driver could no longer pin itself before they start: hand over to a
fresh interpreter running the script.
"""

import os
import sys

if __name__ == "__main__":
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    os.execv(sys.executable, [sys.executable, script, *sys.argv[1:]])
