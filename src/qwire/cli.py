"""Command-line surface: reproducible experiments with CSV/JSON output.

Subcommands
    dispersion    closed-form band energies vs exact diagonalization
    weyl-check    shift/clock algebra and the shift-from-evolution identity
    pst           transfer-fidelity curve for a perfect or uniform chain
    sector-check  2^n exchange chain vs its n-site one-excitation block
    optimize      coupling-profile search at a fixed transfer time

Exit codes: 0 success, 1 tolerance or convergence failure, 2 argument
error, 3 resource cap.  Every command is deterministic given its flags
(including --seed), floats print as shortest round-trip decimals, and
complex values serialize as paired _re/_im fields.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import lattice, pst, spinchain, weyl
from .numerics import hermitian_eig, max_abs
from .optimizer import OptimizeConfig, optimize_couplings

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

RESIDUAL_LIMIT = 1e-10
DISPERSION_LIMIT = 1e-10
SECTOR_LIMIT = 1e-12
PST_PEAK_LIMIT = 1e-8
OPTIMIZE_FIDELITY_FLOOR = 0.999
SECTOR_CLI_CAP = 10


class ArgumentContractError(Exception):
    """A parsed value violates the target operation's preconditions."""


class ResourceCapError(Exception):
    """A parsed value exceeds a hard resource cap."""


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: command name, operation parameters, and
    where/how to write the result."""

    command: str
    params: dict = field(default_factory=dict)
    output: str | None = None
    fmt: str = "csv"


def _fmt_float(value) -> str:
    return repr(float(value))


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _fmt_float(value)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_line(payload: dict) -> str:
    return json.dumps(payload) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ArgumentContractError(message)


# ---------------------------------------------------------------- dispersion


def _config_dispersion(args) -> RunConfig:
    _require(args.topology in (lattice.RING, lattice.LINE), "topology must be ring or line")
    _require(args.d >= 2, f"d must be >= 2, got {args.d}")
    _require(math.isfinite(args.E0), "E0 must be finite")
    _require(math.isfinite(args.A), "A must be finite")
    params = dict(topology=args.topology, d=args.d, E0=args.E0, A=args.A)
    return RunConfig("dispersion", params, args.output, args.format or "csv")


def cmd_dispersion(config: RunConfig) -> int:
    p = config.params
    spec = lattice.uniform_chain(p["d"], p["topology"], p["E0"], p["A"])
    energies = lattice.dispersion(p["topology"], p["d"], p["E0"], p["A"])
    eigenvalues = hermitian_eig(lattice.build_hamiltonian(spec)).values

    if p["topology"] == lattice.RING:
        j_values = np.arange(p["d"])
        kb = 2 * np.pi * j_values / p["d"]
    else:
        j_values = np.arange(1, p["d"] + 1)
        kb = np.pi * j_values / (p["d"] + 1)

    # pair each closed-form energy with the eigenvalue of the same rank
    rank = np.argsort(energies, kind="stable")
    matched = np.empty_like(eigenvalues)
    matched[rank] = eigenvalues
    deviations = np.abs(energies - matched)
    max_deviation = float(deviations.max())

    rows = [
        [int(j_values[i]), kb[i], energies[i], matched[i], deviations[i]]
        for i in range(p["d"])
    ]
    if config.fmt == "csv":
        _emit(_csv(["j", "k_b", "energy", "eigenvalue", "deviation"], rows), config.output)
    else:
        payload = {
            "topology": p["topology"],
            "d": int(p["d"]),
            "E0": float(p["E0"]),
            "A": float(p["A"]),
            "max_deviation": max_deviation,
            "rows": [
                {
                    "j": int(r[0]),
                    "k_b": float(r[1]),
                    "energy": float(r[2]),
                    "eigenvalue": float(r[3]),
                    "deviation": float(r[4]),
                }
                for r in rows
            ],
        }
        _emit(_json_line(payload), config.output)
    return EXIT_OK if max_deviation <= DISPERSION_LIMIT else EXIT_TOLERANCE


# ---------------------------------------------------------------- weyl-check


def _config_weyl_check(args) -> RunConfig:
    _require(args.d >= 2, f"d must be >= 2, got {args.d}")
    return RunConfig("weyl-check", dict(d=args.d), args.output, args.format or "json")


def cmd_weyl_check(config: RunConfig) -> int:
    d = config.params["d"]
    shift = weyl.shift_matrix(d)
    clock = weyl.clock_matrix(d)
    eye = np.eye(d)
    shift_pow = max_abs(np.linalg.matrix_power(shift.matrix, d) - eye)
    clock_pow = max_abs(np.linalg.matrix_power(clock.matrix, d) - eye)
    phase = weyl.commutation_phase(shift, clock)
    commutation = max_abs(shift.matrix @ clock.matrix - phase * clock.matrix @ shift.matrix)
    identity = weyl.verify_shift_identity(d, theta=1.0)

    payload = {
        "d": int(d),
        "phase_re": phase.real,
        "phase_im": phase.imag,
        "shift_pow_residual": float(shift_pow),
        "clock_pow_residual": float(clock_pow),
        "commutation_residual": float(commutation),
        "global_phase_re": identity.global_phase.real,
        "global_phase_im": identity.global_phase.imag,
        "residual": identity.residual,
        "holds": bool(identity.holds),
    }
    if config.fmt == "csv":
        _emit(_csv(list(payload), [[payload[k] for k in payload]]), config.output)
    else:
        _emit(_json_line(payload), config.output)
    ok = (
        max(shift_pow, clock_pow, commutation, identity.residual) <= RESIDUAL_LIMIT
        and identity.holds
    )
    return EXIT_OK if ok else EXIT_TOLERANCE


# ----------------------------------------------------------------------- pst


def _config_pst(args) -> RunConfig:
    _require(args.d >= 2, f"d must be >= 2, got {args.d}")
    _require(args.vartheta > 0, f"vartheta must be positive, got {args.vartheta!r}")
    t_max = args.t_max if args.t_max is not None else math.pi / args.vartheta
    _require(t_max > 0, f"t-max must be positive, got {t_max!r}")
    _require(args.samples >= 2, f"samples must be >= 2, got {args.samples}")
    params = dict(d=args.d, vartheta=args.vartheta, t_max=t_max,
                  samples=args.samples, uniform=args.uniform)
    return RunConfig("pst", params, args.output, args.format or "csv")


def cmd_pst(config: RunConfig) -> int:
    p = config.params
    d, vartheta = p["d"], p["vartheta"]
    if p["uniform"]:
        spec = lattice.uniform_chain(d, lattice.LINE, 0.0, vartheta)
        hamiltonian = lattice.build_hamiltonian(spec)
    else:
        hamiltonian = pst.pst_hamiltonian(d, vartheta)

    grid = np.linspace(0.0, p["t_max"], p["samples"])
    curve = pst.fidelity_curve(hamiltonian, grid, 0, d - 1)

    exit_code = EXIT_OK
    if p["uniform"]:
        t_peak, peak = curve.peak
        summary = {
            "d": int(d),
            "vartheta": float(vartheta),
            "t_star": t_peak,
            "peak_fidelity": peak,
            "period": float(math.pi / vartheta),
            "uniform": True,
        }
    else:
        try:
            report = pst.transfer_time(d, vartheta)
        except ArithmeticError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_TOLERANCE
        summary = {
            "d": int(d),
            "vartheta": float(vartheta),
            "t_star": report.t_star,
            "peak_fidelity": report.peak_fidelity,
            "period": report.period,
            "uniform": False,
        }
        if report.peak_fidelity < 1.0 - PST_PEAK_LIMIT:
            exit_code = EXIT_TOLERANCE

    if config.fmt == "csv":
        rows = [[t, f] for t, f in zip(curve.times, curve.fidelities)]
        _emit(_csv(["t", "fidelity"], rows), config.output)
    else:
        payload = {
            "source": 0,
            "target": int(d - 1),
            "times": [float(t) for t in curve.times],
            "fidelities": [float(f) for f in curve.fidelities],
        }
        _emit(_json_line(payload), config.output)

    summary_stream = sys.stdout if config.output else sys.stderr
    summary_stream.write(_json_line(summary))
    return exit_code


# --------------------------------------------------------------- sector-check


def _config_sector_check(args) -> RunConfig:
    _require(args.n >= 2, f"n must be >= 2, got {args.n}")
    if args.n > SECTOR_CLI_CAP:
        raise ResourceCapError(f"n = {args.n} exceeds the sector-check cap {SECTOR_CLI_CAP}")
    params = dict(n=args.n, pst=args.pst)
    return RunConfig("sector-check", params, args.output, args.format or "json")


def cmd_sector_check(config: RunConfig) -> int:
    p = config.params
    n = p["n"]
    if p["pst"]:
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

    payload = {
        "n": int(n),
        "pst": bool(p["pst"]),
        "max_deviation": float(deviation),
        "holds": bool(deviation <= SECTOR_LIMIT),
    }
    if config.fmt == "csv":
        _emit(_csv(list(payload), [[payload[k] for k in payload]]), config.output)
    else:
        _emit(_json_line(payload), config.output)
    return EXIT_OK if deviation <= SECTOR_LIMIT else EXIT_TOLERANCE


# ------------------------------------------------------------------ optimize


def _config_optimize(args) -> RunConfig:
    _require(args.d >= 2, f"d must be >= 2, got {args.d}")
    _require(0 < args.t_target < math.inf,
             f"t-target must be positive and finite, got {args.t_target!r}")
    _require(args.max_iters >= 1, f"max-iters must be >= 1, got {args.max_iters}")
    _require(args.tol > 0, f"tol must be positive, got {args.tol!r}")
    params = dict(d=args.d, t_target=args.t_target, max_iters=args.max_iters,
                  tol=args.tol, seed=args.seed, init=args.init)
    return RunConfig("optimize", params, args.output, args.format or "json")


def cmd_optimize(config: RunConfig) -> int:
    p = config.params
    opt_config = OptimizeConfig(
        d=p["d"], t_target=p["t_target"], max_iters=p["max_iters"],
        tol=p["tol"], seed=p["seed"],
    )
    if p["init"] == "uniform":
        initial = np.ones(p["d"] - 1)
    else:
        initial = np.random.default_rng(p["seed"]).uniform(0.5, 1.5, p["d"] - 1)

    result = optimize_couplings(opt_config, initial)
    payload = {
        "d": int(p["d"]),
        "couplings": [float(a) for a in result.couplings],
        "fidelity": result.fidelity,
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
    }
    if config.fmt == "csv":
        rows = [[j + 1, a] for j, a in enumerate(result.couplings)]
        _emit(_csv(["j", "coupling"], rows), config.output)
    else:
        _emit(_json_line(payload), config.output)
    ok = result.converged and result.fidelity >= OPTIMIZE_FIDELITY_FLOOR
    return EXIT_OK if ok else EXIT_TOLERANCE


# -------------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qwire", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=["csv", "json"], default=None,
                       help="payload format (default csv for curves/tables, json for reports)")

    p = sub.add_parser("dispersion", help="band energies vs exact diagonalization")
    p.add_argument("--topology", required=True, choices=["ring", "line"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--E0", type=float, default=0.0)
    p.add_argument("--A", type=float, default=1.0)
    add_io(p)

    p = sub.add_parser("weyl-check", help="shift/clock algebra report")
    p.add_argument("--d", type=int, required=True)
    add_io(p)

    p = sub.add_parser("pst", help="transfer-fidelity curve and summary")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--vartheta", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--uniform", action="store_true",
                   help="use uniform couplings instead of the transfer profile")
    add_io(p)

    p = sub.add_parser("sector-check", help="one-excitation block vs n-site model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pst", action="store_true",
                   help="use the transfer profile instead of uniform couplings")
    add_io(p)

    p = sub.add_parser("optimize", help="search coupling profiles for max fidelity")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t-target", type=float, required=True)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", choices=["uniform", "random"], default="uniform")
    add_io(p)

    return parser


_CONFIGS = {
    "dispersion": _config_dispersion,
    "weyl-check": _config_weyl_check,
    "pst": _config_pst,
    "sector-check": _config_sector_check,
    "optimize": _config_optimize,
}

_COMMANDS = {
    "dispersion": cmd_dispersion,
    "weyl-check": cmd_weyl_check,
    "pst": cmd_pst,
    "sector-check": cmd_sector_check,
    "optimize": cmd_optimize,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _CONFIGS[args.command](args)
    except ArgumentContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    try:
        return _COMMANDS[config.command](config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
