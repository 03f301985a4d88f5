"""Span tracer for the matchfactor layers, installed from outside the package.

Run one CLI stage in-process with every public function of every layer
wrapped in a span::

    PYTHONPATH=src python perfbench/tracer.py SPANS.json -- rank-scan --input ...

The wrappers go on the public names in the module namespaces, so a call
that one module makes into another (``decompose`` calling
``solve_nnls_bpp``) is traced, and so is a call inside a module (``kruskal_tensor``
calling ``khatri_rao``).  Public methods of public classes are wrapped on the
class.  Spans stay in memory and are written when the stage ends; the exit
code is the CLI's.

A span is ``[name, start, end, parent, thread, error, info]``; ``parent`` is
an index into the same list or -1.  A span opened on a worker thread with
nothing open on that thread takes the main thread's innermost open span as
its parent, so restarts run on a thread pool nest under the call that
started the pool.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time

LAYERS = ("cli", "data", "tensor", "nnls", "decompose", "patterns", "synthetic")


def _path_bytes(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# what each span keeps from its call's result, by span name
INSPECT = {
    "nnls.solve_nnls_bpp": lambda r, a, k: {
        "rounds": r.iterations,
        "kkt": r.kkt_residual,
    },
    "decompose.rank_scan": lambda r, a, k: {
        "fits": sum(not rec.failed for rec in r.records),
        "converged": sum(rec.converged and not rec.failed for rec in r.records),
    },
    "decompose.fit_restarts": lambda r, a, k: {
        "fits": len(r),
        "converged": sum(m.converged for m in r),
    },
    "data.ingest": lambda r, a, k: {
        "records_read": r.records_read,
        "players_retained": r.players_retained,
        "players_dropped": r.players_dropped,
    },
    "tensor.save_tensor3": _path_bytes,
    "tensor.load_tensor3": _path_bytes,
}


class Tracer:
    """Collects spans in memory from any number of threads."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._stacks[threading.get_ident()] = stack
        return stack

    def wrap(self, name: str, fn):
        tracer = self
        keep = INSPECT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            main = tracer._stacks.get(tracer._main) or [-1]
            parent = stack[-1] if stack else main[-1]
            span = [name, time.perf_counter(), None, parent, threading.get_ident(), None, None]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if keep is not None:
                span[6] = keep(result, args, kwargs)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def install(tracer: Tracer) -> int:
    """Wrap every public function and public method of the layers.

    Modules are taken from ``sys.modules``: as a package attribute,
    ``matchfactor.decompose`` is the ``decompose`` function, not the module.
    Returns the number of wrapped callables.
    """
    modules = {layer: sys.modules[f"matchfactor.{layer}"] for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                wrapped[value] = tracer.wrap(f"{layer}.{attr}", value)
            elif inspect.isclass(value):
                for method, member in list(vars(value).items()):
                    name = f"{layer}.{attr}.{method}"
                    if method.startswith("_"):
                        continue
                    if inspect.isfunction(member):
                        setattr(value, method, tracer.wrap(name, member))
                    elif isinstance(member, classmethod):
                        setattr(value, method, classmethod(tracer.wrap(name, member.__func__)))
    for module in (sys.modules["matchfactor"], *modules.values()):
        for attr, value in list(vars(module).items()):
            if not attr.startswith("_") and inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])
    return len(wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <matchfactor arguments>", file=sys.stderr)
        return 2
    import matchfactor.cli as cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(argv[2:])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
