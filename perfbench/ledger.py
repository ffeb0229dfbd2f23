"""Outside-in per-layer time ledger for the ``repro`` simulator.

The ledger measures where a run's host time goes without touching the
simulator's sources: :class:`Tracer` wraps, from the outside, the public
entry points of every module that maps to a layer (public methods of the
classes a module defines, and its public module-level functions), then
restores every wrapped attribute on :meth:`Tracer.uninstall`.

Accounting rules:

* Every wrapped call is one *span* of its module's layer.  A layer's self
  time is the sum of its spans' durations minus the time their child
  spans cover, so the self times of all layers add up to the time spent
  inside top-level spans.
* A generator is timed per resume: a public generator function returns a
  :class:`TimedGenerator` proxy, and each ``send``/``throw`` on it is one
  span.  Generators handed to the kernel's spawn method (``spawner``) are
  proxied by the module that defined them, which is how private protocol
  generators such as ``MobileHost._serve_retrieve`` are attributed.
* Dunder methods, properties and unmapped modules are not wrapped; their
  time counts towards the layer of the span that called them.

The proxy forwards ``send``, ``throw`` and ``close`` and lets
``StopIteration`` carry the return value, so ``yield from`` and
``Process`` see the wrapped generator unchanged.  It holds no reference
to the values it yields: the kernel recycles a ``Timeout`` only when it
is the event's sole owner, and a proxy that kept one would change the
kernel it measures.
"""

from __future__ import annotations

import functools
import inspect
import sys
from enum import Enum
from time import perf_counter
from types import FunctionType, ModuleType
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Module-name prefix -> layer; the longest matching prefix wins.  The
#: order of first appearance is the layer order of every report.
LAYER_OF_PREFIX: Dict[str, str] = {
    "repro.sim.kernel": "sim.kernel",
    "repro.sim.resources": "sim.kernel",
    "repro.mobility": "mobility",
    "repro.net.p2p": "net.p2p",
    "repro.net.power": "net.power",
    "repro.net.channel": "net.channel",
    "repro.net.ndp": "net.ndp",
    "repro.core.client": "core.client",
    "repro.core.coca": "core.client",
    "repro.core.tcg": "core.tcg",
    "repro.core.server": "core.server",
    "repro.signatures": "signatures",
    "repro.core.signatures_proto": "signatures",
    "repro.cache": "cache",
    "repro.core.admission": "cache",
    "repro.core.replacement": "cache",
    "repro.policies.admission": "cache",
    "repro.policies.replacement": "cache",
    "repro.data.server_db": "data.server_db",
    "repro.workloads": "workloads",
    "repro.data.workload": "workloads",
    "repro.data.zipf": "workloads",
}

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(LAYER_OF_PREFIX.values()))


def repro_layer(module_name: str) -> Optional[str]:
    """The layer a ``repro`` module belongs to, or None when unmapped."""
    best = None
    for prefix, layer in LAYER_OF_PREFIX.items():
        if module_name == prefix or module_name.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best is not None else None


class Ledger:
    """Per-layer self time and span counts, kept on a stack of open spans.

    ``stack[-1]`` accumulates the time covered by the children of the
    innermost open span, whose layer is ``open_layers[-1]``; ``stack[0]``
    therefore sums every top-level span.  A wrapped call made from inside
    a span of its own layer opens no span: its time is that layer's self
    time either way, so ``calls`` counts entries into a layer.
    """

    def __init__(
        self, layers: Iterable[str], clock: Callable[[], float] = perf_counter
    ) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = dict.fromkeys(layers, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(self.self_s, 0)
        self.stack: List[float] = [0.0]
        self.open_layers: List[Optional[str]] = [None]

    def open(self, layer: str) -> float:
        """Open a span of ``layer``; returns its start time for :meth:`close`."""
        self.open_layers.append(layer)
        self.stack.append(0.0)
        return self.clock()

    def close(self, layer: str, start: float) -> None:
        """Close the innermost span, charging its self time to ``layer``."""
        elapsed = self.clock() - start
        stack = self.stack
        inner = stack.pop()
        self.open_layers.pop()
        stack[-1] += elapsed
        self.self_s[layer] += elapsed - inner
        self.calls[layer] += 1

    @property
    def attributed_s(self) -> float:
        """Time inside top-level spans: the sum of every layer's self time."""
        return self.stack[0]

    def reset(self) -> None:
        """Zero every total; only legal while no span is open."""
        if len(self.stack) != 1:
            raise RuntimeError("cannot reset the ledger inside an open span")
        self.stack[0] = 0.0
        for layer in self.self_s:
            self.self_s[layer] = 0.0
            self.calls[layer] = 0


class TimedGenerator:
    """Generator proxy that records one span per resume."""

    __slots__ = ("_generator", "_layer", "_ledger")

    def __init__(self, generator: Any, layer: str, ledger: Ledger) -> None:
        self._generator = generator
        self._layer = layer
        self._ledger = ledger

    def __iter__(self) -> "TimedGenerator":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        ledger = self._ledger
        layer = self._layer
        if ledger.open_layers[-1] == layer:
            return self._generator.send(value)
        start = ledger.open(layer)
        try:
            return self._generator.send(value)
        finally:
            ledger.close(layer, start)

    def throw(self, *exc_info: Any) -> Any:
        ledger = self._ledger
        layer = self._layer
        if ledger.open_layers[-1] == layer:
            return self._generator.throw(*exc_info)
        start = ledger.open(layer)
        try:
            return self._generator.throw(*exc_info)
        finally:
            ledger.close(layer, start)

    def close(self) -> None:
        self._generator.close()


def timed_call(func: Callable, layer: str, ledger: Ledger) -> Callable:
    """Wrap ``func`` so every call is one span of ``layer``."""
    open_layers = ledger.open_layers
    open_span = ledger.open
    close_span = ledger.close

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if open_layers[-1] == layer:
            return func(*args, **kwargs)
        start = open_span(layer)
        try:
            return func(*args, **kwargs)
        finally:
            close_span(layer, start)

    return functools.update_wrapper(wrapper, func)


def timed_generator_function(func: Callable, layer: str, ledger: Ledger) -> Callable:
    """Wrap a generator function so its generators are timed per resume."""

    def wrapper(*args: Any, **kwargs: Any) -> TimedGenerator:
        return TimedGenerator(func(*args, **kwargs), layer, ledger)

    return functools.update_wrapper(wrapper, func)


def _wrap(func: Callable, layer: str, ledger: Ledger) -> Callable:
    if inspect.isgeneratorfunction(func):
        return timed_generator_function(func, layer, ledger)
    return timed_call(func, layer, ledger)


def _is_wrappable_class(obj: Any, module: ModuleType) -> bool:
    return (
        isinstance(obj, type)
        and obj.__module__ == module.__name__
        and not issubclass(obj, (BaseException, Enum))
        and not getattr(obj, "_is_protocol", False)
    )


class Tracer:
    """Installs and removes the ledger's wrappers.

    ``modules`` are the candidate modules; ``layer_of`` maps a module name
    to its layer (None leaves the module unwrapped).  ``spawner`` names the
    ``(class, method)`` that starts processes from generators: its
    generator argument is proxied by the generator's defining module.
    """

    def __init__(
        self,
        modules: Iterable[ModuleType],
        layer_of: Callable[[str], Optional[str]],
        ledger: Ledger,
        spawner: Optional[Tuple[type, str]] = None,
    ) -> None:
        self.modules = list(modules)
        self.layer_of = layer_of
        self.ledger = ledger
        self.spawner = spawner
        #: (owner, attribute, original value) of every patched attribute.
        self._patches: List[Tuple[Any, str, Any]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _spawn_wrapper(self, spawn: Callable, layer: str) -> Callable:
        ledger = self.ledger
        layer_of = self.layer_of

        def spawn_timed(host: Any, generator: Any, *args: Any, **kwargs: Any) -> Any:
            if not isinstance(generator, TimedGenerator):
                frame = getattr(generator, "gi_frame", None)
                owner = layer_of(frame.f_globals.get("__name__", "")) if frame else None
                if owner is not None:
                    generator = TimedGenerator(generator, owner, ledger)
            return spawn(host, generator, *args, **kwargs)

        return timed_call(functools.update_wrapper(spawn_timed, spawn), layer, ledger)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions: Dict[int, Callable] = {}
        for module in self.modules:
            layer = self.layer_of(module.__name__)
            if layer is None:
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if _is_wrappable_class(obj, module):
                    self._install_class(obj, layer)
                elif isinstance(obj, FunctionType) and obj.__module__ == module.__name__:
                    functions[id(obj)] = _wrap(obj, layer, self.ledger)
        # A module-level function is also reachable through every module
        # that imported it by name, so each such binding is patched too.
        for module in self.modules:
            for name, obj in list(vars(module).items()):
                if isinstance(obj, FunctionType) and id(obj) in functions:
                    self._patch(module, name, functions[id(obj)])

    def _install_class(self, cls: type, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if self.spawner == (cls, name):
                self._patch(cls, name, self._spawn_wrapper(raw, layer))
            elif isinstance(raw, staticmethod):
                self._patch(cls, name, staticmethod(_wrap(raw.__func__, layer, self.ledger)))
            elif isinstance(raw, classmethod):
                self._patch(cls, name, classmethod(_wrap(raw.__func__, layer, self.ledger)))
            elif isinstance(raw, FunctionType):
                self._patch(cls, name, _wrap(raw, layer, self.ledger))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()


def repro_tracer(ledger: Ledger) -> Tracer:
    """A tracer over every loaded ``repro`` module, spawning via the kernel."""
    from repro.sim.kernel import Environment

    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    return Tracer(modules, repro_layer, ledger, spawner=(Environment, "process"))
