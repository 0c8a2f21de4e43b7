"""Per-layer spans recorded from outside qwire.

Each traced function is replaced by a wrapper at every module attribute
that holds it, because qwire binds names at import time (`from .numerics
import evolve`): patching only the defining module would miss the calls
that go through `pst.evolve` or `optimizer.transfer_fidelity`.  numpy's
`eigh` is wrapped at `numpy.linalg.eigh`, the attribute qwire looks up on
every call.

A span's self time is its duration minus the durations of the wrapped
calls made inside it.  Spans are kept as per-name sums in memory and read
out once per pass.
"""

from __future__ import annotations

import io
import os
import sys
import time
from collections import defaultdict
from types import ModuleType

import numpy as np

import qwire
from qwire import cli, lattice, numerics, optimizer, pst, spinchain, weyl

MODULES: tuple[ModuleType, ...] = (qwire, numerics, lattice, pst, optimizer, spinchain, weyl, cli)

# (defining module, function name) pairs whose calls become spans.
TRACED = (
    (numerics, "evolve"),
    (numerics, "hermitian_eig"),
    (optimizer, "objective"),
    (optimizer, "optimize_couplings"),
    (lattice, "build_hamiltonian"),
    (pst, "transfer_fidelity"),
    (pst, "transfer_time"),
    (pst, "pst_hamiltonian"),
    (pst, "fidelity_curve"),
    (spinchain, "xy_chain_hamiltonian"),
    (spinchain, "number_operator"),
    (spinchain, "single_excitation_sector"),
    (weyl, "verify_shift_identity"),
    (weyl, "commutation_phase"),
    (cli, "main"),
)

# Per-layer metrics: name -> (unit, kind).  "count" metrics must repeat
# exactly from pass to pass; "time" metrics are medians over passes.
METRICS = {
    "numerics.eigh.calls": ("count", "count"),
    "numerics.eigh.self_s": ("s", "time"),
    "numerics.eigh.dim3_sum": ("count", "count"),
    "numerics.Operator.unitary.calls": ("count", "count"),
    "numerics.Operator.unitary.self_s": ("s", "time"),
    "numerics.Operator.hermitian.calls": ("count", "count"),
    "numerics.Operator.hermitian.self_s": ("s", "time"),
    "numerics.evolve.calls": ("count", "count"),
    "numerics.evolve.self_s": ("s", "time"),
    "numerics.hermitian_eig.calls": ("count", "count"),
    "numerics.hermitian_eig.self_s": ("s", "time"),
    "optimizer.objective.calls": ("count", "count"),
    "optimizer.iterations": ("count", "count"),
    "optimizer.evals_per_iteration": ("evals/iter", "count"),
    "optimizer.objective.mean_us": ("us", "time"),
    "optimizer.optimize_couplings.self_s": ("s", "time"),
    "lattice.build_hamiltonian.calls": ("count", "count"),
    "lattice.build_hamiltonian.self_s": ("s", "time"),
    "pst.transfer_fidelity.calls": ("count", "count"),
    "pst.transfer_fidelity.self_s": ("s", "time"),
    "pst.transfer_time.self_s": ("s", "time"),
    "pst.pst_hamiltonian.self_s": ("s", "time"),
    "pst.fidelity_curve.samples": ("count", "count"),
    "pst.fidelity_curve.self_s": ("s", "time"),
    "spinchain.xy_chain_hamiltonian.calls": ("count", "count"),
    "spinchain.xy_chain_hamiltonian.self_s": ("s", "time"),
    "spinchain.xy_chain_hamiltonian.flops_computed": ("flop", "count"),
    "spinchain.number_operator.self_s": ("s", "time"),
    "spinchain.single_excitation_sector.self_s": ("s", "time"),
    "weyl.verify_shift_identity.self_s": ("s", "time"),
    "weyl.commutation_phase.self_s": ("s", "time"),
    "cli.main.calls": ("count", "count"),
    "cli.main.self_s": ("s", "time"),
    "cli.bytes_written": ("B", "count"),
}

# Metrics counted by `Tracer._count` rather than read off a span.
COUNTED = frozenset({
    "numerics.eigh.dim3_sum",
    "optimizer.iterations",
    "pst.fidelity_curve.samples",
    "spinchain.xy_chain_hamiltonian.flops_computed",
    "cli.bytes_written",
})


def _output_path(argv) -> str | None:
    argv = list(argv or ())
    if "--output" in argv:
        return argv[argv.index("--output") + 1]
    return None


class Tracer:
    """Installs span wrappers on construction; `uninstall` restores the
    original attributes.  Only calls made while `active` is true are
    recorded, so the benchmark's own checks and kernels stay out."""

    def __init__(self) -> None:
        self.active = False
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        self.reset()
        for module, fname in TRACED:
            original = getattr(module, fname)
            wrapper = self._wrap(f"{module.__name__.rsplit('.', 1)[-1]}.{fname}", original)
            for holder in MODULES:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, attr, wrapper)
        self._patch(np.linalg, "eigh", self._wrap("numerics.eigh", np.linalg.eigh))
        post_init = numerics.Operator.__post_init__
        tracer = self

        def operator_post_init(op, *args, **kwargs):
            return tracer._span(f"numerics.Operator.{op.tag}", post_init, (op, *args), kwargs)

        self._patch(numerics.Operator, "__post_init__", operator_post_init)

    def _patch(self, holder, attr: str, value) -> None:
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, name: str, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        stdout_start = sys.stdout.tell() if isinstance(sys.stdout, io.StringIO) else None
        children = [0.0]
        self._stack.append(children)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            self.calls[name] += 1
            self.total_s[name] += elapsed
            self.self_s[name] += elapsed - children[0]
        self._count(name, args, kwargs, result, stdout_start)
        return result

    def _count(self, name, args, kwargs, result, stdout_start) -> None:
        if name == "numerics.eigh":
            self.counts["numerics.eigh.dim3_sum"] += args[0].shape[-1] ** 3
        elif name == "optimizer.optimize_couplings":
            self.counts["optimizer.iterations"] += result.iterations
        elif name == "pst.fidelity_curve":
            t_grid = args[1] if len(args) > 1 else kwargs["t_grid"]
            self.counts["pst.fidelity_curve.samples"] += np.size(t_grid)
        elif name == "spinchain.xy_chain_hamiltonian":
            # dense complex products of the Kronecker build: one 2^n matmul per bond
            n = len(args[0] if args else kwargs["couplings"]) + 1
            self.counts["spinchain.xy_chain_hamiltonian.flops_computed"] += 8 * (n - 1) * 8**n
        elif name == "cli.main":
            written = 0
            if stdout_start is not None and isinstance(sys.stdout, io.StringIO):
                written += sys.stdout.tell() - stdout_start
            path = _output_path(args[0] if args else kwargs.get("argv"))
            if path is not None and os.path.exists(path):
                written += os.path.getsize(path)
            self.counts["cli.bytes_written"] += written

    def snapshot(self) -> dict[str, float]:
        """Every per-layer metric for the calls recorded since `reset`."""
        calls = self.calls.get("optimizer.objective", 0)
        iterations = self.counts.get("optimizer.iterations", 0)
        derived = {
            "optimizer.evals_per_iteration": calls / iterations if iterations else 0.0,
            "optimizer.objective.mean_us":
                1e6 * self.total_s.get("optimizer.objective", 0.0) / calls if calls else 0.0,
        }
        out: dict[str, float] = {}
        for metric in METRICS:
            layer, quantity = metric.rsplit(".", 1)
            if metric in derived:
                out[metric] = derived[metric]
            elif metric in COUNTED:
                out[metric] = self.counts.get(metric, 0)
            elif quantity == "calls":
                out[metric] = self.calls.get(layer, 0)
            else:
                out[metric] = self.self_s.get(layer, 0.0)
        return out
