"""Set-up probe: a fresh interpreter imports the CLI and writes the input.

    python3 perfbench/probe.py <workload> <seed> <directory>

Prints ``time.monotonic()`` when ready to run the first job; the parent
took the same clock just before starting this process.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tropimpl.cli  # noqa: E402,F401  the import every CLI run pays

import workloads  # noqa: E402

w = workloads.BY_NAME[sys.argv[1]]
workloads.write_input(w, int(sys.argv[2]), Path(sys.argv[3]))
print(repr(time.monotonic()), flush=True)
