"""Span recording from outside the program: timing shims around each
layer's public callable.

The traced pass times the calls *into* each layer from the benchmark's
own files; nothing under ``src/`` knows it is being traced.  A shim is a
table row — (layer, module, attribute) — installed by temporarily
rebinding the public name: a module-level function is replaced in every
loaded ``repro.*`` module that holds a reference to it (``from x import
f`` copies), a method on its class.  Each call pushes a frame on a
thread-local stack, so a span knows its parent and a layer's *self*
time is its duration minus the spans it caused.

A row whose callable no longer exists is reported ``absent`` and
skipped, so a rename under ``src/`` degrades one layer's numbers
instead of breaking the instrument.

Aggregates are kept per layer; the raw spans of the first chunk (or
request) are kept too, for reading one chunk's timeline by hand.  The
totals are not locked: traced passes run on one thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

CALL = "call"
GENERATOR = "generator"
RAW_SPAN_LIMIT = 20_000


class LayerTotals:
    __slots__ = ("calls", "self_s", "total_s", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.counters: Dict[str, int] = {}

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount


class Recorder:
    """Per-layer totals plus the raw spans of the first chunk."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.layers: Dict[str, LayerTotals] = {}
        #: ``(id, parent id, layer, start, end, chunk)`` tuples.
        self.raw: List[Tuple[int, int, str, float, float, int]] = []
        #: Chunk (batch) or request (replay) the next spans belong to;
        #: bumped by the parse shim or by the replay loop.
        self.chunk = 0
        self._spans = 0

    def totals(self, layer: str) -> LayerTotals:
        return self.layers.setdefault(layer, LayerTotals())

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def open(self, layer: str) -> list:
        self._spans += 1
        frame = [layer, self._spans, 0.0, perf_counter()]
        self._stack().append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        layer, span_id, children, start = frame
        stack = self._stack()
        stack.pop()
        duration = end - start
        totals = self.layers[layer]
        totals.calls += 1
        totals.total_s += duration
        totals.self_s += duration - children
        parent = 0
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][1]
        if self.chunk <= 1 and len(self.raw) < RAW_SPAN_LIMIT:
            self.raw.append((span_id, parent, layer, start, end,
                             self.chunk))


@dataclass(frozen=True)
class Shim:
    layer: str
    module: str
    attr: str                    # "function" or "Class.method"
    kind: str = CALL
    #: ``observe(totals, result)`` for a call, ``observe(totals, item)``
    #: per yielded item for a generator: counts taken where the work is.
    observe: Optional[Callable] = None
    #: Each item this generator yields starts a new chunk.
    marks_chunk: bool = False

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attr}"


def _observe_parse(totals, chunk) -> None:
    totals.add("pairs", len(chunk))


def _observe_hash(totals, hashes) -> None:
    totals.add("seeds", len(hashes))


def _observe_query(totals, results) -> None:
    hits = accesses = 0
    for result in results:
        hits += result.seed_hits
        accesses += result.seed_table_accesses
    totals.add("seed_hits", hits)
    totals.add("seed_accesses", accesses)


def _observe_filter(totals, result) -> None:
    totals.add("iterations", result.iterations)
    totals.add("passed", 1 if result.pairs else 0)


def _observe_light(totals, hit) -> None:
    totals.add("hits", 0 if hit is None else 1)


def _observe_banded(totals, result) -> None:
    totals.add("cells", result.cells)


def _observe_line(totals, line) -> None:
    totals.add("lines", 1)
    totals.add("bytes", len(line) + 1)


#: The layers and the public callable that is each one's way in.
SHIMS = (
    Shim("genome.io_fasta", "repro.genome.io_fasta", "iter_pairs_chunked",
         GENERATOR, _observe_parse, marks_chunk=True),
    Shim("hashing", "repro.hashing.seeds", "hash_reads_batch", CALL,
         _observe_hash),
    Shim("core.query", "repro.core.query", "query_hash_groups", CALL,
         _observe_query),
    Shim("core.pairfilter", "repro.core.pairfilter", "filter_adjacent",
         CALL, _observe_filter),
    Shim("core.light_align", "repro.core.light_align", "LightAligner.align",
         CALL, _observe_light),
    Shim("align.banded", "repro.align.banded", "align_banded", CALL,
         _observe_banded),
    Shim("align.chaining", "repro.align.chaining", "chain_anchors"),
    Shim("mapper.mm2", "repro.mapper.mm2", "Mm2LikeMapper.map_pair"),
    Shim("core.pipeline", "repro.core.pipeline",
         "GenPairPipeline.map_stream", GENERATOR),
    Shim("api.engines", "repro.api.engines", "GenPairEngine.map_stream",
         GENERATOR),
    Shim("api.engines", "repro.api.engines", "Mm2Engine.map_stream",
         GENERATOR),
    Shim("genome.sam", "repro.genome.sam", "SamWriter.write_result"),
    Shim("genome.sam", "repro.genome.sam", "AlignmentRecord.to_sam_line",
         CALL, _observe_line),
)


def _wrap_call(recorder: Recorder, shim: Shim, original: Callable):
    layer, observe = shim.layer, shim.observe
    totals = recorder.totals(layer)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        frame = recorder.open(layer)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(frame)
        if observe is not None:
            observe(totals, result)
        return result

    return traced


def _wrap_generator(recorder: Recorder, shim: Shim, original: Callable):
    """One span per ``next()``: a span never stays open across a yield,
    so the stack holds only calls that are really on the Python stack."""
    layer, observe = shim.layer, shim.observe
    totals = recorder.totals(layer)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        inner = original(*args, **kwargs)
        try:
            while True:
                if shim.marks_chunk:
                    recorder.chunk += 1
                frame = recorder.open(layer)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    recorder.close(frame)
                if observe is not None:
                    observe(totals, item)
                yield item
        finally:
            inner.close()

    return traced


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _rebind(old, new) -> int:
    """Point every ``repro.*`` module global that is ``old`` at ``new``."""
    count = 0
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)
                count += 1
    return count


class Installed:
    """The shims currently in place; :meth:`remove` undoes every one."""

    def __init__(self) -> None:
        #: ``target -> "installed" | "absent"`` for every table row.
        self.status: Dict[str, str] = {}
        self._undo: List[Callable[[], None]] = []

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(recorder: Recorder, table=SHIMS) -> Installed:
    installed = Installed()
    for shim in table:
        try:
            owner = importlib.import_module(shim.module)
            *path, name = shim.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            installed.status[shim.target] = "absent"
            continue
        wrap = _wrap_generator if shim.kind == GENERATOR else _wrap_call
        traced = wrap(recorder, shim, original)
        if path:
            _patch_class(installed, owner, name, traced)
        else:
            _rebind(original, traced)
            installed._undo.append(
                functools.partial(_rebind, traced, original))
        installed.status[shim.target] = "installed"
    return installed


def _patch_class(installed: Installed, cls, name: str, traced) -> None:
    inherited = name not in vars(cls)
    original = vars(cls).get(name)
    setattr(cls, name, traced)
    if inherited:
        installed._undo.append(lambda: delattr(cls, name))
    else:
        installed._undo.append(lambda: setattr(cls, name, original))


@contextmanager
def tracing(recorder: Recorder, table=SHIMS):
    """Install the shims for the body, remove them whatever happens."""
    installed = install(recorder, table)
    try:
        yield installed
    finally:
        installed.remove()


def span_dicts(recorder: Recorder, origin: float) -> List[dict]:
    """The raw spans as JSON rows, times in ms from ``origin``."""
    return [{"id": span_id, "parent": parent, "layer": layer,
             "start_ms": (start - origin) * 1e3,
             "end_ms": (end - origin) * 1e3, "chunk": chunk}
            for span_id, parent, layer, start, end, chunk in recorder.raw]
