"""In-memory span tracing by wrapping the package's public names.

A traced frame installs wrappers around the names that `pipeline`, `metrics`
and `engine` look up at call time, records one span per call (name, start,
end, parent) and restores the originals afterwards, so untraced frames run the
unmodified program. Calls made once per pixel (seed derivation and the channel
race) would produce tens of thousands of spans per frame; they are recorded as
counters on the enclosing span instead, which keeps memory bounded.
"""

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import import_module

import numpy as np

_PAGE = os.sysconf("SC_PAGE_SIZE")

# Layer entry points, by the module that calls them, and their span names.
PIPELINE_CALLS = {
    "load_image": "pgm.load",
    "save_image": "pgm.save",
    "write_dump": "dump.write",
    "compute_features": "model.features",
    "build_likelihood_volume": "model.volume",
    "reference_infer": "reference.infer",
    "run_stochastic_grid": "engine.grid",
}
METRICS_CALLS = {
    "compute_features": "model.features",
    "build_likelihood_volume": "model.volume",
    "reference_infer": "reference.infer",
    "run_stochastic_grid": "engine.grid",
    "compare_results": "metrics.compare",
}


def current_rss_bytes() -> int:
    """Resident set size of this process now (Linux /proc)."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE


@dataclass
class Span:
    id: int
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0  # time covered by child spans and per-pixel counters
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, **self.attrs}


class _CountingRng:
    """Delegates to a numpy Generator and counts the variates it returns."""

    def __init__(self, rng):
        self._rng = rng
        self.drawn = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)
        if not callable(method):
            return method

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.drawn += int(np.size(out))
            return out

        return counted


def _volume_bytes(volume) -> int:
    return sum(v.nbytes for v in vars(volume).values() if isinstance(v, np.ndarray))


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._patches = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, parent.id if parent else -1)
        self.spans.append(s)
        self._open.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                parent.child_s += s.duration

    def _count(self, key: str, seconds: float, **extra) -> None:
        """Add one per-pixel call to the innermost open span."""
        if not self._open:
            return
        s = self._open[-1]
        s.child_s += seconds
        a = s.attrs
        extra[key + "_s"] = seconds
        extra[key + "_calls"] = 1
        for k, v in extra.items():
            a[k] = a.get(k, 0) + v

    def _patch(self, owner, attr, make_wrapper) -> None:
        if attr not in vars(owner):
            # The program no longer exposes this name; its layer reads 0.
            print(f"trace: {owner.__name__}.{attr} not found", file=sys.stderr)
            return
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _spanned(self, name):
        def make(fn):
            def traced(*args, **kwargs):
                with self.span(name) as s:
                    if name == "model.volume":
                        s.attrs["rss_before"] = current_rss_bytes()
                    out = fn(*args, **kwargs)
                    if name == "model.volume":
                        s.attrs["rss_after"] = current_rss_bytes()
                        s.attrs["bytes"] = _volume_bytes(out)
                    elif name == "engine.grid":
                        s.attrs["n_max"] = int(out.n_max)
                        s.attrs["pixels"] = int(out.cycles.size)
                    elif name == "dump.write":
                        s.attrs["bytes"] = os.path.getsize(args[0])
                return out

            return traced

        return make

    def _counted(self, key):
        def make(fn):
            def traced(*args, **kwargs):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                self._count(key, time.perf_counter() - t0)
                return out

            return traced

        return make

    def _race(self, fn):
        def traced(rng, rates, *args, **kwargs):
            counting = _CountingRng(rng)
            t0 = time.perf_counter()
            out = fn(counting, rates, *args, **kwargs)
            self._count("race", time.perf_counter() - t0, draws=counting.drawn,
                        channel_cycles=int(out.cycles) * int(np.size(rates)))
            return out

        return traced

    @contextmanager
    def installed(self, package):
        """Wrap the layer entry points of `package` for the enclosed block."""
        sub = lambda name: import_module(f"{package.__name__}.{name}")  # noqa: E731
        try:
            for module, calls in ((sub("pipeline"), PIPELINE_CALLS),
                                  (sub("metrics"), METRICS_CALLS)):
                for attr, name in calls.items():
                    self._patch(module, attr, self._spanned(name))
            self._patch(sub("model").LikelihoodVolume, "channel_rates",
                        self._spanned("model.channel_rates"))
            engine = sub("engine")
            self._patch(engine, "stream_seed", self._counted("seed"))
            self._patch(np.random, "default_rng", self._counted("seed"))
            self._patch(engine, "race_product_channels", self._race)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()
