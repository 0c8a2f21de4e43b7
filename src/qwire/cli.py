"""Command-line surface: reproducible experiments with CSV/JSON output.

Subcommands
    dispersion    closed-form band energies vs exact diagonalization
    weyl-check    shift/clock algebra and the shift-from-evolution identity
    pst           transfer-fidelity curve for a perfect or uniform chain
    sector-check  2^n exchange chain vs its n-site one-excitation block
    optimize      coupling-profile search at a fixed transfer time

Exit codes: 0 success, 1 tolerance or convergence failure, 2 argument
error (a flag the CLI or the library rejects), 3 resource cap.  Every command is deterministic given its flags
(including --seed), floats print as shortest round-trip decimals, and
complex values serialize as paired _re/_im fields.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import lattice, pst, spinchain, weyl
from .errors import QwireError
from .numerics import hermitian_eig, max_abs
from .optimizer import OptimizeConfig, optimize_couplings

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

DISPERSION_LIMIT = 1e-10
SECTOR_LIMIT = 1e-12
OPTIMIZE_FIDELITY_FLOOR = 0.999
SECTOR_CLI_CAP = 10


class ArgumentContractError(Exception):
    """A parsed value violates the target operation's preconditions."""

    exit_code = EXIT_USAGE


class ResourceCapError(Exception):
    """A parsed value exceeds a hard resource cap."""

    exit_code = EXIT_RESOURCE


class Result(NamedTuple):
    """What a command hands to `main`: the JSON payload, whether it met its
    tolerance, its CSV (header, rows) table, or None for one row under the
    payload's keys, and an optional summary line for stderr (stdout when
    the payload goes to a file)."""

    payload: dict
    ok: bool
    table: tuple[list[str], list] | None = None
    summary: dict | None = None


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ArgumentContractError(message)


# ---------------------------------------------------------------- dispersion


def cmd_dispersion(args) -> Result:
    _require(args.d >= 2, f"d must be >= 2, got {args.d}")
    _require(math.isfinite(args.E0), "E0 must be finite")
    _require(math.isfinite(args.A), "A must be finite")
    spec = lattice.uniform_chain(args.d, args.topology, args.E0, args.A)
    j, kb = lattice.wave_numbers(args.topology, args.d)
    energies = lattice.dispersion(args.topology, args.d, args.E0, args.A)
    eigenvalues = hermitian_eig(lattice.build_hamiltonian(spec)).values

    # pair each closed-form energy with the eigenvalue of the same rank
    matched = np.empty_like(eigenvalues)
    matched[np.argsort(energies, kind="stable")] = eigenvalues
    deviations = np.abs(energies - matched)

    header = ["j", "k_b", "energy", "eigenvalue", "deviation"]
    rows = list(zip(j.tolist(), kb, energies, matched, deviations))
    payload = {"topology": args.topology, "d": int(args.d), "E0": float(args.E0),
               "A": float(args.A), "max_deviation": float(deviations.max()),
               "rows": [dict(zip(header, row)) for row in rows]}
    return Result(payload, payload["max_deviation"] <= DISPERSION_LIMIT, (header, rows))


# ---------------------------------------------------------------- weyl-check


def cmd_weyl_check(args) -> Result:
    d = args.d
    _require(d >= 2, f"d must be >= 2, got {d}")
    try:
        pair = weyl.weyl_pair(d)
    except (ValueError, QwireError) as exc:
        raise ArithmeticError(f"shift/clock pair for d={d} failed certification: {exc}") from exc
    identity = weyl.verify_shift_identity(d, theta=1.0)
    phase, global_phase = pair.commutation_phase, identity.global_phase
    payload = {
        "d": int(d), "phase_re": phase.real, "phase_im": phase.imag,
        "shift_pow_residual": pair.shift_pow_residual,
        "clock_pow_residual": pair.clock_pow_residual,
        "commutation_residual": pair.commutation_residual,
        "global_phase_re": global_phase.real, "global_phase_im": global_phase.imag,
        "residual": identity.residual, "holds": bool(identity.holds),
    }
    # the certified pair bounds the first three residuals; holds bounds the last
    return Result(payload, identity.holds)


# ----------------------------------------------------------------------- pst


def cmd_pst(args) -> Result:
    d, vartheta = args.d, args.vartheta
    _require(d >= 2, f"d must be >= 2, got {d}")
    _require(0 < vartheta < math.inf, f"vartheta must be positive and finite, got {vartheta!r}")
    t_max = args.t_max if args.t_max is not None else math.pi / vartheta
    _require(0 < t_max < math.inf, f"t-max must be positive and finite, got {t_max!r}")
    _require(args.samples >= 2, f"samples must be >= 2, got {args.samples}")
    if args.uniform:
        spec = lattice.uniform_chain(d, lattice.LINE, 0.0, vartheta)
        hamiltonian = lattice.build_hamiltonian(spec)
    else:
        hamiltonian = pst.pst_hamiltonian(d, vartheta)
    curve = pst.fidelity_curve(hamiltonian, np.linspace(0.0, t_max, args.samples), 0, d - 1)

    if args.uniform:
        t_star, peak = curve.peak
        period = float(math.pi / vartheta)
    else:
        # raises ArithmeticError (exit 1) when the crossing misses fidelity 1
        report = pst.transfer_time(d, vartheta)
        t_star, peak, period = report.t_star, report.peak_fidelity, report.period
    summary = {"d": int(d), "vartheta": float(vartheta), "t_star": t_star,
               "peak_fidelity": peak, "period": period, "uniform": bool(args.uniform)}
    payload = {"source": 0, "target": int(d - 1), "times": curve.times.tolist(),
               "fidelities": curve.fidelities.tolist()}
    rows = list(zip(curve.times, curve.fidelities))
    return Result(payload, True, (["t", "fidelity"], rows), summary)


# --------------------------------------------------------------- sector-check


def cmd_sector_check(args) -> Result:
    n = args.n
    _require(n >= 2, f"n must be >= 2, got {n}")
    if n > SECTOR_CLI_CAP:
        raise ResourceCapError(f"n = {n} exceeds the sector-check cap {SECTOR_CLI_CAP}")
    if args.pst:
        couplings = pst.pst_couplings(n, 1.0)
        reference = pst.pst_hamiltonian(n, 1.0).matrix
    else:
        couplings = np.ones(n - 1)
        spec = lattice.uniform_chain(n, lattice.LINE, 0.0, 1.0)
        gauge = np.diag((-1.0) ** np.arange(n))
        # alternating sign gauge maps the lattice -A convention onto the
        # +A hopping the exchange chain produces
        reference = gauge @ lattice.build_hamiltonian(spec).matrix @ gauge

    full = spinchain.xy_chain_hamiltonian(couplings)
    block = spinchain.single_excitation_sector(full, spinchain.sector_map(n))
    deviation = max_abs(block.matrix - reference)
    holds = bool(deviation <= SECTOR_LIMIT)
    payload = {"n": int(n), "pst": bool(args.pst), "max_deviation": float(deviation),
               "holds": holds}
    return Result(payload, holds)


# ------------------------------------------------------------------ optimize


def cmd_optimize(args) -> Result:
    d = args.d
    _require(d >= 2, f"d must be >= 2, got {d}")
    _require(0 < args.t_target < math.inf,
             f"t-target must be positive and finite, got {args.t_target!r}")
    _require(args.max_iters >= 1, f"max-iters must be >= 1, got {args.max_iters}")
    _require(0 < args.tol < math.inf, f"tol must be positive and finite, got {args.tol!r}")
    config = OptimizeConfig(d=d, t_target=args.t_target, max_iters=args.max_iters,
                            tol=args.tol, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    initial = np.ones(d - 1) if args.init == "uniform" else rng.uniform(0.5, 1.5, d - 1)

    result = optimize_couplings(config, initial)
    payload = {"d": int(d), "couplings": list(result.couplings), "fidelity": result.fidelity,
               "iterations": int(result.iterations), "converged": bool(result.converged)}
    rows = [[j + 1, a] for j, a in enumerate(result.couplings)]
    ok = result.converged and result.fidelity >= OPTIMIZE_FIDELITY_FLOOR
    return Result(payload, ok, (["j", "coupling"], rows))


# -------------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qwire", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, fmt: str) -> None:
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=["csv", "json"], default=fmt,
                       help="payload format (default %(default)s)")

    p = sub.add_parser("dispersion", help="band energies vs exact diagonalization")
    p.add_argument("--topology", required=True, choices=["ring", "line"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--E0", type=float, default=0.0)
    p.add_argument("--A", type=float, default=1.0)
    add_io(p, "csv")

    p = sub.add_parser("weyl-check", help="shift/clock algebra report")
    p.add_argument("--d", type=int, required=True)
    add_io(p, "json")

    p = sub.add_parser("pst", help="transfer-fidelity curve and summary")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--vartheta", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--uniform", action="store_true",
                   help="use uniform couplings instead of the transfer profile")
    add_io(p, "csv")

    p = sub.add_parser("sector-check", help="one-excitation block vs n-site model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pst", action="store_true",
                   help="use the transfer profile instead of uniform couplings")
    add_io(p, "json")

    p = sub.add_parser("optimize", help="search coupling profiles for max fidelity")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t-target", type=float, required=True)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", choices=["uniform", "random"], default="uniform")
    add_io(p, "json")

    return parser


_COMMANDS = {
    "dispersion": cmd_dispersion,
    "weyl-check": cmd_weyl_check,
    "pst": cmd_pst,
    "sector-check": cmd_sector_check,
    "optimize": cmd_optimize,
}


def main(argv=None) -> int:
    """Run one subcommand; the only place that formats and writes output."""
    args = build_parser().parse_args(argv)
    try:
        result = _COMMANDS[args.command](args)
    except (ArgumentContractError, ResourceCapError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a numerical result that missed its tolerance is exit 1
        return getattr(exc, "exit_code", EXIT_TOLERANCE)
    except QwireError as exc:
        # input that passes the checks here but not the library's
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.format == "csv":
        text = _csv(*(result.table or (list(result.payload), [result.payload.values()])))
    else:
        text = json.dumps(result.payload) + "\n"
    try:
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if result.summary is not None:
        summary_stream = sys.stdout if args.output else sys.stderr
        summary_stream.write(json.dumps(result.summary) + "\n")
    return EXIT_OK if result.ok else EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
