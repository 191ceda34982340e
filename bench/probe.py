"""Set-up probe: a fresh interpreter imports ``holoifs.cli`` and loads configs.

Usage: ``python3 bench/probe.py CONFIG...`` with the package on ``PYTHONPATH``.
Prints one JSON line with ``import_s`` and ``load_s``.  The benchmark times
the whole process from outside as ``setup_s``, the cost every CLI call pays
before it starts working.
"""

import json
import sys
import time

t0 = time.perf_counter()
import holoifs.cli  # noqa: E402

t1 = time.perf_counter()
for path in sys.argv[1:]:
    holoifs.cli.load_system(path)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
