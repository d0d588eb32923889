"""Per-layer wall and virtual self time, from spans recorded at layer
boundaries by wrappers the benchmark installs around each layer's public
entry points.  No file of the program changes.

The layer map (``manifest.json``, key ``layers``) names, for every layer,
the classes or modules that make it up and the entry points to wrap.
:func:`resolve` checks each one before a run starts, so a refactor that
renames or drops an entry point fails the benchmark loudly instead of
silently reporting zero for that layer.

A span opens when a wrapped entry point is called from another layer
(a call inside the same layer passes straight through).  On close, its
duration minus the duration of its child spans is the layer's *self*
time, on the wall clock (``time.perf_counter``) and on the federation's
virtual clock.  Generator entry points are timed step by step, each
``next()`` being one stretch of the layer's work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple


class LayerMapError(Exception):
    """A listed entry point does not exist in the program."""


@dataclass
class EntryPoint:
    layer: str
    owner: Any            #: the class or module holding the function
    name: str
    original: Callable


def _import_target(target: str) -> Any:
    """``mcat.query`` -> module; ``mcat.catalog.Mcat`` -> class."""
    try:
        return importlib.import_module("repro." + target)
    except ModuleNotFoundError:
        module_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module("repro." + module_name)
        except ModuleNotFoundError as exc:
            raise LayerMapError(f"module repro.{module_name} is gone") from exc
        owner = getattr(module, attr, None)
        if not isinstance(owner, type):
            raise LayerMapError(f"class repro.{target} is gone")
        return owner


def resolve(layer_map: Dict[str, Dict[str, List[str]]]) -> List[EntryPoint]:
    """Every entry point of the layer map; raises LayerMapError for any
    listed module, class or function the program no longer has."""
    points: List[EntryPoint] = []
    for layer, targets in layer_map.items():
        for target, names in targets.items():
            owner = _import_target(target)
            for name in names:
                # a class's own definition only: wrapping an inherited
                # function would wrap the base class's entry point twice
                fn = (owner.__dict__.get(name) if isinstance(owner, type)
                      else getattr(owner, name, None))
                if not inspect.isfunction(fn):
                    raise LayerMapError(
                        f"layer {layer!r}: repro.{target}.{name} is not a "
                        f"function of the program any more")
                points.append(EntryPoint(layer, owner, name, fn))
    return points


class Ledger:
    """Accumulates per-layer calls and self time while recording is on."""

    def __init__(self, layers: List[str]):
        self.layers = list(layers)
        self.clock = None
        self.recording = False
        #: open spans: [layer, wall start, child wall, virt start, child virt]
        self.stack: List[list] = []
        self.calls = {layer: 0 for layer in layers}
        self.self_wall_s = {layer: 0.0 for layer in layers}
        self.self_virt_s = {layer: 0.0 for layer in layers}

    def start(self, clock: Any) -> None:
        self.clock = clock
        self.stack.clear()
        self.recording = True

    def stop(self) -> None:
        self.recording = False
        self.clock = None

    def _enter(self, layer: str) -> list:
        frame = [layer, perf_counter(), 0.0, self.clock.now, 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        wall = perf_counter() - frame[1]
        virt = self.clock.now - frame[3]
        self.stack.pop()
        layer = frame[0]
        self.self_wall_s[layer] += wall - frame[2]
        self.self_virt_s[layer] += virt - frame[4]
        if self.stack:
            parent = self.stack[-1]
            parent[2] += wall
            parent[4] += virt

    def _crosses(self, layer: str) -> bool:
        return self.recording and (not self.stack
                                   or self.stack[-1][0] != layer)

    def wrap(self, point: EntryPoint) -> Callable:
        fn, layer = point.original, point.layer
        ledger = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if ledger._crosses(layer):
                    ledger.calls[layer] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        frame = (ledger._enter(layer)
                                 if ledger._crosses(layer) else None)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            if frame is not None:
                                ledger._exit(frame)
                        yield item
                finally:
                    inner.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ledger._crosses(layer):
                return fn(*args, **kwargs)
            ledger.calls[layer] += 1
            frame = ledger._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                ledger._exit(frame)
        return wrapper


class Installed:
    """Wrappers installed for one traced trial; :meth:`remove` restores
    every original, including names other modules imported directly."""

    def __init__(self, points: List[EntryPoint], ledger: Ledger):
        self._undo: List[Tuple[Any, str, Any]] = []
        swaps = {}
        for point in points:
            wrapped = ledger.wrap(point)
            swaps[id(point.original)] = wrapped
            self._set(point.owner, point.name, wrapped)
        # ``from repro.net.wire import message_size`` binds the function
        # in the importing module too: rebind every such copy
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                wrapped = swaps.get(id(value))
                if wrapped is not None and value is not wrapped:
                    self._set(module, attr, wrapped)

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
