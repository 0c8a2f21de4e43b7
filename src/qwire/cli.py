"""Command-line surface: reproducible experiments with CSV/JSON output.

Subcommands
    dispersion    closed-form band energies vs exact diagonalization
    weyl-check    shift/clock algebra and the shift-from-evolution identity
    pst           transfer-fidelity curve for a perfect or uniform chain
    sector-check  2^n exchange chain vs its n-site one-excitation block
    optimize      coupling-profile search at a fixed transfer time

The library computes and the CLI formats: each number a command prints
comes from lattice, pst, spinchain, weyl or optimizer (dispersion's
rank matching, sector-check's reference chain and pst's period
pi/vartheta among them).  Exit codes follow the error's type: 0
success, 1 ArithmeticError (a tolerance, convergence or certification
failure), 2 QwireError (an argument the library refuses; the CLI adds
only pst's own flag rules for --vartheta (with --uniform, lattice's
band-edge refusal renamed for it), --t-max and --samples and names
optimize's --t-target when it is not positive and finite, while a finite
one at or above OptimizeConfig's limit is refused under the field name
t_target), 3 RegisterTooLargeError (resource cap).
optimize also exits 1 when its search is not certified (the payload's
"converged" is false: the budget ran out, or the Newton polish found no
strict local maximum) or its fidelity is below 0.999.
Every command is deterministic given its flags (including --seed),
floats print as shortest round-trip decimals, and complex values
serialize as paired _re/_im fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import lattice, pst, spinchain, weyl
from .errors import (
    InvalidConfigError,
    NotProportionalError,
    QwireError,
    RegisterTooLargeError,
    require_dim,
    require_real,
)
from .numerics import max_abs
from .optimizer import OptimizeConfig, optimize_couplings

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

DISPERSION_LIMIT = 1e-10
SECTOR_LIMIT = 1e-12
OPTIMIZE_FIDELITY_FLOOR = 0.999
SECTOR_CLI_CAP = 10


class Result(NamedTuple):
    """What a command hands to `main`: the JSON payload, whether it met its
    tolerance, its CSV (header, columns) table, or None for one row under
    the payload's keys, and an optional summary line for stderr (stdout
    when the payload goes to a file)."""

    payload: dict
    ok: bool
    table: tuple[list[str], tuple] | None = None
    summary: dict | None = None


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _fmt_column(column) -> list[str]:
    """Each cell of one CSV column as `_fmt_cell` writes it.  A float64
    array, the bulk of every table, is printed as the repr of each Python
    float its `tolist()` gives, as repr(float(v)) writes it; any other
    column goes cell by cell."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return list(map(repr, column.tolist()))
    return list(map(_fmt_cell, column))


def _csv(header: list[str], columns) -> str:
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*map(_fmt_column, columns))))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- dispersion


def cmd_dispersion(args) -> Result:
    spec = lattice.uniform_chain(args.d, args.topology, args.E0, args.A)
    j, kb, energies, matched = lattice._modes(spec)
    deviations = np.abs(energies - matched)

    header = ["j", "k_b", "energy", "eigenvalue", "deviation"]
    columns = (j.tolist(), kb, energies, matched, deviations)
    payload = {"topology": args.topology, "d": int(args.d), "E0": float(args.E0),
               "A": float(args.A), "max_deviation": float(deviations.max()),
               "rows": [dict(zip(header, row)) for row in zip(*columns)]}
    # relative, as hermitian_eig's bound is: a deviation of a few ulp of a
    # large energy passes
    limit = DISPERSION_LIMIT * max(1.0, float(np.abs(energies).max()))
    return Result(payload, payload["max_deviation"] <= limit, (header, columns))


# ---------------------------------------------------------------- weyl-check


def cmd_weyl_check(args) -> Result:
    d = args.d
    try:
        pair = weyl.weyl_pair(d)
    except (ValueError, NotProportionalError) as exc:  # certification; d < 2 exits 2
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
    d, vartheta = args.d, require_real(args.vartheta, "vartheta", QwireError, positive=True)
    t_max = (pst._period(vartheta) if args.t_max is None  # names vartheta when inf
             else require_real(args.t_max, "t-max", QwireError, positive=True))
    if args.samples < 2:
        raise QwireError(f"samples must be >= 2, got {args.samples}")
    grid = np.linspace(0.0, t_max, args.samples)  # t_max > 0: a nonzero time
    if args.uniform:
        spec = lattice.uniform_chain(d, lattice.LINE, 0.0, vartheta)
        # the line's own band-edge rule, renamed for the flag: past the float
        # range the solve returns infinite levels
        try:
            lattice._band(spec)
        except InvalidConfigError:
            raise QwireError(f"the band edge 2*vartheta*cos(pi/(d+1)) overflows: "
                             f"vartheta={vartheta!r} at d={d}") from None
        curve = pst.fidelity_curve(lattice.build_hamiltonian(spec), grid, 0, d - 1)
        t_star, peak = curve.peak
    else:
        # one eigensolve for both; ArithmeticError (exit 1) when the
        # crossing misses fidelity 1
        curve, report = pst._curve_and_crossing(d, vartheta, grid)
        t_star, peak = report.t_star, report.peak_fidelity
    summary = {"d": int(d), "vartheta": float(vartheta), "t_star": t_star,
               "peak_fidelity": peak, "period": pst._period(vartheta),
               "uniform": bool(args.uniform)}
    payload = {"source": 0, "target": int(d - 1), "times": curve.times.tolist(),
               "fidelities": curve.fidelities.tolist()}
    return Result(payload, True, (["t", "fidelity"], (curve.times, curve.fidelities)), summary)


# --------------------------------------------------------------- sector-check


def cmd_sector_check(args) -> Result:
    n = args.n
    if n > SECTOR_CLI_CAP:
        raise RegisterTooLargeError(f"n = {n} exceeds the sector-check cap {SECTOR_CLI_CAP}")
    require_dim(n, "n")
    couplings = pst.pst_couplings(n, 1.0) if args.pst else np.ones(n - 1)
    full = spinchain.xy_chain_hamiltonian(couplings)
    block = spinchain.single_excitation_sector(full, spinchain.sector_map(n))
    # the exchange chain hops with +J_j on bond j: a line chain with A_j = -J_j
    reference = lattice.build_hamiltonian(lattice.ChainSpec(n, lattice.LINE, 0.0, -couplings))
    deviation = max_abs(block.matrix - reference.matrix)
    holds = bool(deviation <= SECTOR_LIMIT)
    payload = {"n": int(n), "pst": bool(args.pst), "max_deviation": float(deviation),
               "holds": holds}
    return Result(payload, holds)


# ------------------------------------------------------------------ optimize


def cmd_optimize(args) -> Result:
    d = args.d
    # OptimizeConfig checks every setting; this one repeats its rule to name the flag
    require_real(args.t_target, "t-target", QwireError, positive=True)
    config = OptimizeConfig(d=d, t_target=args.t_target, max_iters=args.max_iters,
                            tol=args.tol, seed=args.seed)
    initial = (np.ones(d - 1) if args.init == "uniform"
               else np.random.default_rng(args.seed).uniform(0.5, 1.5, d - 1))

    result = optimize_couplings(config, initial)
    payload = {"d": int(d), "couplings": list(result.couplings), "fidelity": result.fidelity,
               "iterations": int(result.iterations), "converged": bool(result.converged)}
    ok = result.converged and result.fidelity >= OPTIMIZE_FIDELITY_FLOOR
    return Result(payload, ok, (["j", "coupling"], (range(1, d), result.couplings)))


# -------------------------------------------------------------------- driver


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one in the process: building it costs far more than a parse,
    and parsing leaves it unchanged."""
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
    except (QwireError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, RegisterTooLargeError):
            return EXIT_RESOURCE
        # input the CLI or the library rejects is exit 2; a numerical
        # result that missed its tolerance is exit 1
        return EXIT_USAGE if isinstance(exc, QwireError) else EXIT_TOLERANCE

    payload = result.payload
    if args.format == "csv":
        text = _csv(*(result.table or (list(payload), [[v] for v in payload.values()])))
    else:
        text = json.dumps(payload) + "\n"
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
