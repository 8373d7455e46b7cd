"""Traced in-process run of the spinloc command line.

    python3 bench/tracer.py SPANS_JSON RUN_ID -- localize MEASUREMENTS [options]

Times ``import spinloc.cli``, then wraps every public function of the layers
on the localize path (the modules named in LAYERS) from the outside, calls
``spinloc.cli.main`` with the arguments after ``--``, removes the wrappers
and writes the spans to SPANS_JSON. The program itself is not modified: each
wrapper replaces a module attribute, one wrapper per module namespace that
holds the function, so a span also records which module made the call.

A span is ``[id, parent_id, name, caller, start_s, end_s, raised, count]``.
``count`` is the lane count of ``dipole.invert_many`` and the bytes written
by the fileio writers, otherwise null. All spans belong to RUN_ID. Spans
started on a worker thread with no open span of its own take the innermost
open span of the main thread as parent. The exit code is that of the run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

LAYERS = ("cli", "fileio", "extract", "localize", "dipole", "montecarlo")

_WRITERS = ("fileio.write_json", "fileio.atomic_write_text")


def _lanes(args, kwargs):
    import numpy as np

    names = ("a_par", "a_perp", "a_iso")
    values = [args[k] if k < len(args) else kwargs.get(n, 0.0)
              for k, n in enumerate(names)]
    return int(np.broadcast(*values).size)


def _bytes_written(args, kwargs):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


def _counter_for(name):
    if name == "dipole.invert_many":
        return _lanes
    if name.startswith("fileio.save_") or name in _WRITERS:
        return _bytes_written
    return None


class Tracer:
    """Installs and removes the span-recording wrappers."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._saved = []
        self.wrapped = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, caller):
        counter = _counter_for(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            sid = next(self._ids)
            stack.append(sid)
            raised = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                count = (counter(args, kwargs)
                         if counter and not raised else None)
                self.spans.append(
                    (sid, parent, name, caller, t0, t1, raised, count))

        return wrapper

    def install(self):
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"spinloc.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets[obj] = f"{layer}.{attr}"
        self.wrapped = sorted(targets.values())
        for modname, mod in sorted(sys.modules.items()):
            if modname != "spinloc" and not modname.startswith("spinloc."):
                continue
            caller = modname.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(obj, targets[obj], caller))

    def remove(self):
        for mod, attr, obj in self._saved:
            setattr(mod, attr, obj)
        left = [f"{mod.__name__}.{attr}" for mod, attr, obj in self._saved
                if getattr(mod, attr) is not obj]
        self._saved = []
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    t0 = time.perf_counter()
    import spinloc.cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        code = spinloc.cli.main(cli_args)
    finally:
        tracer.remove()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"run_id": run_id, "import_s": import_s, "exit_code": code,
                   "wrapped": tracer.wrapped,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
