"""Spans and counts around the calls into logent, recorded from outside.

A Tracer replaces each public function of the package's modules (and the
benchmark's own ``invoke_cli``, which stands for the ``cli`` layer) with a
wrapper that times the call as a span nested in the currently open spans.
The numpy/scipy kernels the package calls are wrapped too, but only
counted: their time stays in the self time of the layer that called them.
Wrappers do nothing while no job span is open, so oracle checks and
replays are never recorded.  Spans are aggregated in memory per function.
"""
from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import scipy.linalg

LAYERS = ("vectors", "maxent", "dynamics", "densities", "wigner")
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft")
LINALG_FUNCTIONS = ("solve", "norm", "matrix_power")


class Tracer:
    def __init__(self, package, jobs_module):
        self._targets = []  # (owner, attribute, wrapper)
        self._stack = []  # open frames: [start, child time, fft calls at open]
        self.counts = Counter()  # span and kernel calls, fft points, errors per layer
        self.spans = defaultdict(list)  # name -> [(duration, self time, fft calls, measure)]
        self.layer_self = Counter()  # (workload, layer) -> self time (s)
        self.jobs = []  # (workload, wall time, sum of span self times)
        self._workload = None
        self._self_sum = 0.0
        for layer in LAYERS:
            module = getattr(package, layer)
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    self._add_span(module, name, f"{layer}.{name}", layer)
        self._add_span(jobs_module, "invoke_cli", "cli.main", "cli")
        for name in FFT_FUNCTIONS:
            if hasattr(np.fft, name):
                self._add_kernel(np.fft, name, "fft", points=True)
        for name in LINALG_FUNCTIONS:
            self._add_kernel(np.linalg, name, f"linalg.{name}", points=False)
        self._add_kernel(scipy.linalg, "expm", "linalg.expm", points=False)

    # -- wrappers ---------------------------------------------------------

    def _add_span(self, owner, attr, name, layer):
        fn = getattr(owner, attr)
        measure = MEASURES.get(name)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            frame = [perf_counter(), 0.0, tracer.counts["fft.calls"]]
            stack.append(frame)
            tracer.counts[f"{name}.calls"] += 1
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                tracer.counts[f"{layer}.errors"] += 1
                raise
            finally:
                duration = perf_counter() - frame[0]
                stack.pop()
                stack[-1][1] += duration
                self_time = duration - frame[1]
                tracer.layer_self[tracer._workload, layer] += self_time
                tracer._self_sum += self_time
                tracer.spans[name].append((
                    duration, self_time, tracer.counts["fft.calls"] - frame[2],
                    measure(result) if measure and result is not None else None,
                ))

        self._targets.append((owner, attr, span))

    def _add_kernel(self, owner, attr, name, points):
        fn = getattr(owner, attr)
        counts = self.counts
        stack = self._stack

        @functools.wraps(fn)
        def kernel(*args, **kwargs):
            if stack:
                counts[f"{name}.calls"] += 1
                if points:
                    counts[f"{name}.points"] += int(np.size(args[0] if args else kwargs["a"]))
            return fn(*args, **kwargs)

        self._targets.append((owner, attr, kernel))

    # -- installation and jobs ------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._targets]
        try:
            for owner, attr, wrapper in self._targets:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def job_start(self, workload: str, start: float) -> None:
        """Open the root span of one job; spans recorded until job_end nest in it."""
        self._stack.append([start, 0.0, self.counts["fft.calls"]])
        self._workload = workload
        self._self_sum = 0.0

    def job_end(self, end: float) -> None:
        start, children, _ = self._stack.pop()
        wall = end - start
        self.jobs.append((self._workload, wall, self._self_sum + wall - children))


def _steps(result):
    return len(result[0].times) - 1


def _samples(result):
    return len(result.times) - 1


MEASURES = {"wigner.wigner_run": _steps, "dynamics.trajectory": _samples}
