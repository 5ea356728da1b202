"""How fast the host runs right now, as a factor against its fast mode.

The recording machine, a 2-vCPU virtual machine on a shared host, switches
between a fast and a slow mode at random, for a second to minutes at a time:
Python-level code takes 1.4-2x as long in the slow mode. Which mode a run
lands in decides its timings more than the program does. So every timing
the benchmark reports is divided by a host factor taken next to it, from a
fixed reference job of the same kind that gqdkit does not run:

- `kernel_factor`: small numpy and dict work in the calling process, like
  the work of one gqdkit op; taken before and after every in-process op.
- `import_factor`: importing a fixed set of standard-library modules that
  gqdkit's own import does not load, in the calling process; taken right
  after each set-up.
- `child_factor`: a fresh interpreter that imports the same modules; taken
  before and after every `cli` op, whose cost is interpreter start-up and
  import.

Each factor is the reference job's time over its time in the fast mode of
the recording machine (the *_REF constants), so a corrected timing reads as
the time on that machine in its fast mode. A change to gqdkit does not touch
the reference jobs, so it moves corrected timings as much as raw ones.
"""

from __future__ import annotations

import importlib
import subprocess
import sys
import time

import numpy as np

REF_MODULES = ("asyncio", "xml.dom.minidom", "http.server", "xmlrpc.client", "mailbox", "doctest",
               "configparser", "sqlite3", "tarfile")
KERNEL_REF_MS = 0.33
IMPORT_REF_MS = 45.0
CHILD_REF_MS = 155.0

_rng = np.random.default_rng(12345)
_H = _rng.normal(size=(4, 4))
_H = _H + _H.T
_X = _rng.normal(size=(2, 2))


def kernel_factor() -> float:
    t0 = time.perf_counter_ns()
    acc = 0.0
    for k in range(10):
        a = np.kron(_X, _X)
        acc += float(np.trace(a @ _H)) + float(np.linalg.eigvalsh(_H)[k % 4])
        acc += sum({j: j * k for j in range(16)}.values())
    return (time.perf_counter_ns() - t0) / 1e6 / KERNEL_REF_MS


def import_factor() -> float:
    """Once per process: the modules stay imported."""
    fresh = [name for name in REF_MODULES if name not in sys.modules]
    if fresh != list(REF_MODULES):
        raise RuntimeError(f"reference modules already imported: {sorted(set(REF_MODULES) - set(fresh))}")
    t0 = time.perf_counter_ns()
    for name in REF_MODULES:
        importlib.import_module(name)
    return (time.perf_counter_ns() - t0) / 1e6 / IMPORT_REF_MS


def child_factor() -> float:
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import " + ", ".join(REF_MODULES)], check=True)
    return (time.perf_counter_ns() - t0) / 1e6 / CHILD_REF_MS
