"""Problem lists, independent output checks and reference kernels.

A workload is a fixed list of problems made from the workload seed.  Each
problem calls qwire once (a library function, or the CLI in-process through
`cli.main` with `--output`) and comes with a check that recomputes the
expected output from closed forms, numpy or scipy, never from qwire.

Import this module only after the BLAS thread count is set in the
environment, because it imports numpy.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from qwire import cli, optimizer, pst, spinchain

# Restart seeds of the optimize problems are drawn from range(OPTIMIZE_SEED_POOL);
# every seed in it was run for each kept problem (see README.md).  Chain
# length -> restart seeds per pass; the largest size gets the most, since
# it is also timed alone as largest_s.
OPTIMIZE_SEED_POOL = 1000
OPTIMIZE_SEEDS = {7: 24, 8: 56}
T_TARGET = math.pi / 2
FIDELITY_FLOOR = 0.999

CURVE_ATOL = 1e-10
PEAK_FLOOR = 1.0 - 1e-10
DISPERSION_ATOL = 1e-10
WEYL_PHASE_ATOL = 1e-12
WEYL_RESIDUAL_LIMIT = 1e-10
SECTOR_LIMIT = 1e-12
OPTIMIZE_FIDELITY_SLACK = 1e-9


class CliResult(NamedTuple):
    code: int
    stdout: str


@dataclass(frozen=True)
class Problem:
    """One call into qwire.  `check` returns None when the output is right
    and a message when it is not; it runs outside the timed region."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    group: str = ""  # problems of one size that differ only in seed share a group

    @property
    def key(self) -> str:
        return self.group or self.name


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple[Problem, ...]
    largest: str  # key of the problem(s) timed as largest_s
    make_kernel: Callable[[], Callable[[], float]]  # builds its inputs outside set-up
    # Kernel seconds per pass (one slice per problem) on the reference host:
    # 2-vCPU Intel Xeon at 2.1 GHz, one OpenBLAS thread.  Times are rescaled
    # to this speed, see run.py.
    kernel_ref_s: float


def failed(output) -> bool:
    """A CLI call fails when it exits non-zero; a library call fails by raising."""
    return isinstance(output, CliResult) and output.code != 0


def _cli(argv: list[str]) -> CliResult:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return CliResult(code, buf.getvalue())


def _num(x: float) -> str:
    return repr(float(x))


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _first_failure(*conditions: tuple[bool, str]) -> str | None:
    for ok, message in conditions:
        if not ok:
            return message
    return None


# ------------------------------------------------------------------ spectral


def _line_amplitude(d: int, A: float, times: np.ndarray) -> np.ndarray:
    """<d-1| exp(-iHt) |0> of the uniform line chain from its closed-form
    modes sin(k*pi*l/(d+1)) and energies -2A cos(k*pi/(d+1))."""
    k = np.arange(1, d + 1)
    q = k * np.pi / (d + 1)
    weights = (2.0 / (d + 1)) * np.sin(q) * np.sin(q * d)
    energies = -2.0 * A * np.cos(q)
    return np.exp(-1j * np.outer(times, energies)) @ weights


def _check_curve(path: Path, t_max: float, samples: int, expected) -> str | None:
    header, table = _read_csv(path)
    if header != ["t", "fidelity"] or table.shape != (samples, 2):
        return f"{path.name}: header {header} shape {table.shape}"
    times, fidelities = table[:, 0], table[:, 1]
    grid_dev = float(np.max(np.abs(times - np.linspace(0.0, t_max, samples))))
    curve_dev = float(np.max(np.abs(fidelities - expected(times))))
    return _first_failure(
        (grid_dev <= 1e-12 * t_max, f"{path.name}: time grid off by {grid_dev:.3e}"),
        (curve_dev <= CURVE_ATOL, f"{path.name}: curve off by {curve_dev:.3e}"),
    )


def _pst_curve(out: Path, d: int, vartheta: float, samples: int) -> Problem:
    path = out / f"pst-d{d}.csv"
    t_max = math.pi / vartheta
    argv = ["pst", "--d", str(d), "--vartheta", _num(vartheta), "--t-max", _num(t_max),
            "--samples", str(samples), "--output", str(path)]

    def check(result: CliResult) -> str | None:
        summary = json.loads(result.stdout)
        return _first_failure(
            (summary["peak_fidelity"] >= PEAK_FLOOR, f"pst d={d}: peak {summary['peak_fidelity']!r}"),
            (abs(summary["t_star"] - math.pi / (2 * vartheta)) <= 1e-12, f"pst d={d}: t_star"),
        ) or _check_curve(path, t_max, samples,
                          lambda t: np.sin(vartheta * t) ** (2 * (d - 1)))

    return Problem(f"pst d={d}", lambda: _cli(argv), check)


def _uniform_curve(out: Path, d: int, A: float, t_max: float, samples: int) -> Problem:
    path = out / f"uniform-d{d}.csv"
    argv = ["pst", "--d", str(d), "--vartheta", _num(A), "--t-max", _num(t_max),
            "--samples", str(samples), "--uniform", "--output", str(path)]

    def check(result: CliResult) -> str | None:
        return _check_curve(path, t_max, samples,
                            lambda t: np.abs(_line_amplitude(d, A, t)) ** 2)

    return Problem(f"pst --uniform d={d}", lambda: _cli(argv), check)


def _transfer_time(d: int, vartheta: float) -> Problem:
    t_star = math.pi / (2 * vartheta)

    def check(report) -> str | None:
        return _first_failure(
            (report.d == d, f"transfer_time d={d}: reported d={report.d}"),
            (abs(report.t_star - t_star) <= 1e-12 * t_star, f"transfer_time d={d}: t_star"),
            (report.peak_fidelity >= PEAK_FLOOR,
             f"transfer_time d={d}: peak {report.peak_fidelity!r}"),
        )

    return Problem(f"transfer_time d={d}", lambda: pst.transfer_time(d, vartheta), check)


def _dispersion(out: Path, topology: str, d: int, E0: float, A: float) -> Problem:
    path = out / f"dispersion-{topology}.csv"
    argv = ["dispersion", "--topology", topology, "--d", str(d), "--E0", _num(E0),
            "--A", _num(A), "--output", str(path)]
    if topology == "ring":
        j = np.arange(d)
        kb = 2 * np.pi * j / d
    else:
        j = np.arange(1, d + 1)
        kb = np.pi * j / (d + 1)
    energies = E0 - 2 * A * np.cos(kb)

    def check(result: CliResult) -> str | None:
        header, table = _read_csv(path)
        if header[:4] != ["j", "k_b", "energy", "eigenvalue"] or table.shape[0] != d:
            return f"dispersion {topology}: header {header} rows {table.shape[0]}"
        return _first_failure(
            (np.array_equal(table[:, 0], j), f"dispersion {topology}: j column"),
            (np.allclose(table[:, 1], kb, rtol=0, atol=1e-12), f"dispersion {topology}: k_b"),
            (np.allclose(table[:, 2], energies, rtol=0, atol=DISPERSION_ATOL),
             f"dispersion {topology}: energy column"),
            (np.allclose(table[:, 3], energies, rtol=0, atol=DISPERSION_ATOL),
             f"dispersion {topology}: eigenvalue column"),
        )

    return Problem(f"dispersion {topology} d={d}", lambda: _cli(argv), check)


def _weyl_check(out: Path, d: int) -> Problem:
    path = out / f"weyl-d{d}.json"
    argv = ["weyl-check", "--d", str(d), "--output", str(path)]
    phase = complex(math.cos(-2 * math.pi / d), math.sin(-2 * math.pi / d))

    def check(result: CliResult) -> str | None:
        report = json.loads(path.read_text(encoding="utf-8"))
        measured = complex(report["phase_re"], report["phase_im"])
        return _first_failure(
            (abs(measured - phase) <= WEYL_PHASE_ATOL, f"weyl d={d}: phase {measured!r}"),
            (report["residual"] <= WEYL_RESIDUAL_LIMIT, f"weyl d={d}: residual"),
            (report["holds"] is True, f"weyl d={d}: identity does not hold"),
        )

    return Problem(f"weyl-check d={d}", lambda: _cli(argv), check)


def _spectral(rng: np.random.Generator, out: Path) -> list[Problem]:
    problems = [_transfer_time(d, rng.uniform(0.5, 2.0)) for d in (128, 256, 512)]
    problems.append(_pst_curve(out, 200, rng.uniform(0.5, 2.0), 4000))
    problems.append(_uniform_curve(out, 64, rng.uniform(0.5, 1.5), 40.0, 4000))
    for topology in ("ring", "line"):
        problems.append(_dispersion(out, topology, 256, rng.uniform(-1, 1), rng.uniform(0.5, 1.5)))
    problems.append(_weyl_check(out, 128))
    return problems


# ------------------------------------------------------------------ optimize


def _peak_fidelity(couplings: np.ndarray, t_max: float) -> tuple[float, float]:
    """Highest end-to-end fidelity of the line chain on (0, t_max]: a dense
    grid through numpy's eigh, then golden-section refinement.  Returns
    (time, fidelity from scipy's expm at that time)."""
    from scipy.linalg import expm

    d = couplings.shape[0] + 1
    h = np.diag(couplings, 1) + np.diag(couplings, -1)
    values, vectors = np.linalg.eigh(h)
    weights = vectors[d - 1, :] * vectors[0, :]

    def fid(t):
        return np.abs(np.exp(-1j * np.multiply.outer(t, values)) @ weights) ** 2

    grid = np.linspace(0.0, t_max, 4001)
    k = int(np.argmax(fid(grid)))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    ratio = (math.sqrt(5) - 1) / 2
    for _ in range(60):
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if fid(a) >= fid(b):
            hi = b
        else:
            lo = a
    t = (lo + hi) / 2
    return t, float(abs(expm(-1j * t * h)[d - 1, 0]) ** 2)


def _optimize(out: Path, d: int, seed: int) -> Problem:
    path = out / f"optimize-d{d}-s{seed}.json"
    argv = ["optimize", "--d", str(d), "--t-target", _num(T_TARGET), "--init", "uniform",
            "--seed", str(seed), "--output", str(path)]
    t_max = optimizer.COUPLING_BOUND * T_TARGET

    def check(result: CliResult) -> str | None:
        report = json.loads(path.read_text(encoding="utf-8"))
        couplings = np.array(report["couplings"], dtype=float)
        if couplings.shape != (d - 1,):
            return f"optimize d={d} seed={seed}: {couplings.shape[0]} couplings"
        t, reached = _peak_fidelity(couplings, t_max)
        return _first_failure(
            (report["fidelity"] >= FIDELITY_FLOOR,
             f"optimize d={d} seed={seed}: fidelity {report['fidelity']!r}"),
            (reached >= report["fidelity"] - OPTIMIZE_FIDELITY_SLACK,
             f"optimize d={d} seed={seed}: expm reaches {reached!r} at t={t!r}, "
             f"reported {report['fidelity']!r}"),
        )

    return Problem(f"optimize d={d} seed={seed}", lambda: _cli(argv), check, f"optimize d={d}")


def _optimize_list(rng: np.random.Generator, out: Path) -> list[Problem]:
    seeds = rng.choice(OPTIMIZE_SEED_POOL, size=max(OPTIMIZE_SEEDS.values()), replace=False)
    return [_optimize(out, d, int(s)) for i, s in enumerate(seeds)
            for d, count in OPTIMIZE_SEEDS.items() if i < count]


# -------------------------------------------------------------------- sector


def bit_swap_hamiltonian(couplings: np.ndarray) -> np.ndarray:
    """Exchange chain built by index arithmetic: bond j joins the basis
    states that differ by swapping unequal bits of sites j and j+1
    (site 0 is the most significant bit)."""
    n = couplings.shape[0] + 1
    idx = np.arange(2**n)
    h = np.zeros((2**n, 2**n), dtype=complex)
    for j, amplitude in enumerate(couplings):
        hi_bit, lo_bit = n - 1 - j, n - 2 - j
        differ = ((idx >> hi_bit) & 1) != ((idx >> lo_bit) & 1)
        h[idx[differ] ^ ((1 << hi_bit) | (1 << lo_bit)), idx[differ]] = amplitude
    return h


def popcount_diagonal(n: int) -> np.ndarray:
    idx = np.arange(2**n)
    counts = sum((idx >> b) & 1 for b in range(n))
    return np.diag(counts.astype(complex))


def _sector_check(out: Path, n: int, pst_profile: bool) -> Problem:
    flag = ["--pst"] if pst_profile else []
    path = out / f"sector-n{n}{'-pst' if pst_profile else ''}.json"
    argv = ["sector-check", "--n", str(n), *flag, "--output", str(path)]

    def check(result: CliResult) -> str | None:
        report = json.loads(path.read_text(encoding="utf-8"))
        return _first_failure(
            (report["n"] == n and report["pst"] is pst_profile, f"sector n={n}: echo {report}"),
            (report["holds"] is True and report["max_deviation"] <= SECTOR_LIMIT,
             f"sector n={n} pst={pst_profile}: {report}"),
        )

    return Problem(f"sector-check n={n}{' --pst' if pst_profile else ''}", lambda: _cli(argv), check)


def _xy_chain(couplings: np.ndarray) -> Problem:
    n = couplings.shape[0] + 1

    def check(op) -> str | None:
        ok = np.array_equal(op.matrix, bit_swap_hamiltonian(couplings))
        return None if ok else f"xy_chain_hamiltonian n={n} differs from the bit-swap build"

    return Problem(f"xy_chain_hamiltonian n={n}",
                   lambda: spinchain.xy_chain_hamiltonian(couplings), check)


def _number_operator(n: int) -> Problem:
    def check(op) -> str | None:
        ok = np.array_equal(op.matrix, popcount_diagonal(n))
        return None if ok else f"number_operator n={n} differs from the popcount diagonal"

    return Problem(f"number_operator n={n}", lambda: spinchain.number_operator(n), check)


def _sector(rng: np.random.Generator, out: Path) -> list[Problem]:
    problems = []
    for n in (6, 8, 9, 10):
        problems += [
            _sector_check(out, n, False),
            _sector_check(out, n, True),
            _number_operator(n),
        ]
        if n < 10:  # sector-check n=10 already builds the largest chain
            problems.append(_xy_chain(rng.uniform(0.5, 1.5, n - 1)))
    return problems


# --------------------------------------------------------- reference kernels
# numpy only, on fixed inputs independent of the workload seed.  A kernel
# is a short slice of work; a pass runs one slice per problem, spread over
# the pass, so that their summed time samples the host's speed over the
# same stretch as the problems.  Each slice returns a number so that its
# work cannot be skipped.


def _small_kernel(reps: int) -> Callable[[], float]:
    """8x8 evaluations shaped like the optimizer's objective: build, check
    hermiticity, eigh, propagator, unitarity check, one entry."""
    profiles = np.random.default_rng(20090101).uniform(0.5, 1.5, (reps, 7))
    idx = np.arange(7)
    eye = np.eye(8)

    def kernel() -> float:
        total = 0.0
        for c in profiles:
            h = np.zeros((8, 8), dtype=complex)
            h[idx, idx + 1] = -c
            h[idx + 1, idx] = -c
            total += np.max(np.abs(h - h.conj().T))
            values, vectors = np.linalg.eigh(h)
            u = (vectors * np.exp(-1j * values * T_TARGET)) @ vectors.conj().T
            total += np.max(np.abs(u.conj().T @ u - eye)) + abs(u[7, 0]) ** 2
        return total

    return kernel


def _dense_kernel(eigh_dim: int, matmul_dim: int, matmuls: int) -> Callable[[], float]:
    """One dense hermitian eigh and `matmuls` complex matmuls at fixed sizes."""
    rng = np.random.default_rng(20090102)

    def hermitian(n: int) -> np.ndarray:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return (a + a.conj().T) / 2

    a, b = hermitian(eigh_dim), hermitian(matmul_dim)

    def kernel() -> float:
        total = float(np.linalg.eigh(a)[0][0])
        for _ in range(matmuls):
            total += float(abs((b @ b)[0, 0]))
        return total

    return kernel


# -------------------------------------------------------------------- build


def build(name: str, seed: int, out: Path) -> Workload:
    """The workload's problem list and reference kernel for one seed.
    CLI problems write their outputs under `out`."""
    rng = np.random.default_rng(seed)
    if name == "spectral":
        return Workload(name, tuple(_spectral(rng, out)), "transfer_time d=512",
                        lambda: _dense_kernel(128, 256, 1), 0.060)
    if name == "optimize":
        return Workload(name, tuple(_optimize_list(rng, out)), f"optimize d={max(OPTIMIZE_SEEDS)}",
                        lambda: _small_kernel(100), 0.43)
    if name == "sector":
        return Workload(name, tuple(_sector(rng, out)), "sector-check n=10",
                        lambda: _dense_kernel(256, 512, 3), 1.27)
    raise ValueError(f"unknown workload {name!r}")
