"""Command-line front end.

Subcommands
-----------
``torsion``        assemble log T(C(N)) = Top + Tors + Res and emit the report
``truncated``      scalar log torsion of the truncated cone (needs --epsilon)
``anomaly``        boundary anomaly integral -2 Res, in closed form for every even n
``scaling``        Tors under metric scaling over a mu grid (CSV or JSON)
``dump-spectrum``  enumerated slices with multiplicities and heat coefficients
``dump-zeta``      full continuation artifacts per slice
``verify``         identity and oracle suite; nonzero exit on any failure
``dump-olver``     exact expansion-coefficient tables

Each subcommand is one entry of ``_COMMANDS``: its handler, its help line
and the flags it reads.  The parser is built from that table and ``main``
dispatches through it, so a flag a command does not read is a usage error.

Exit codes: 0 success, 1 numerical verification failure, 2 configuration
error.  Every JSON report is written by one encoder, ``dumps``, each float by
``repr``: the shortest text that reads back the same double.  A report holds
finite doubles or is not written: a value outside binary64 exits 1 naming
the command.  Its one null is a value that does not exist, the scaling bound
|Tors| mu / log mu at mu = 1 and its maximum over a grid with no other row.
Apart from the wall-time provenance field, identical configurations produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .bessel import modified_bessels, uniform_expansion, wronskian_residual
from .config import RunConfig, parse_config, read_config_document
from .crosssection import CrossSection, theta_heat_coeffs, theta_sums
from .errors import ConfigError, CutoffInsufficientError, DomainError, ODEIntegrationError
from .firstorder import FirstOrderZeta
from .olver import DEFAULT_MAX_ORDER, d_poly, eval_t_poly, m_poly_eval, olver_pair, z_diff_by_b, z_table
from .torsion import (
    ModelOperatorSpec,
    NumericsParams,
    ab_constant,
    build_slices,
    build_splits,
    gy_det_ratio_oracles,
    harmonic_det,
    log_torsion_cone,
    log_torsion_truncated,
    model_det_ratios,
    res_term,
    t_eta_lambda,
    tors_scaling_profile,
    tors_term,
    torsion_difference,
)
from .zeta import MellinSplit, build_zeta_eval, plan_t0, shifted_zeta0, shifted_zeta_prime0

DEFAULT_CONFIG = {
    "schema": 1,
    "cross_section": {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 0], [0, 1]]},
}


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


def dumps(doc, command: str = "report") -> str:
    """Report text: JSON indented by 2, each float written by ``repr``, the
    shortest text that reads back the same double, and numpy integers as
    ints; any other type is a TypeError.  A non-finite float is an
    OverflowError naming ``command``."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False, default=operator.index) + "\n"
    except ValueError:
        raise OverflowError(f"a {command} value lies outside binary64") from None


def _write_report(text: str, path: Optional[str]):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError("output.path", f"not writable: {exc}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns its report, a JSON document or
# CSV text, which ``main`` writes
# ---------------------------------------------------------------------------


def _params(cfg: RunConfig) -> NumericsParams:
    return NumericsParams(cutoff=cfg.cutoff, tolerance=cfg.tolerance)


def _report(cfg: RunConfig, result: dict, provenance: dict) -> dict:
    """{"result", "provenance"}, the provenance being the base fields
    followed by ``provenance``."""
    base = {"version": __version__, "schema": 1, "tolerance": cfg.tolerance, "cutoff": cfg.cutoff}
    return {"result": result, "provenance": {**base, **provenance}}


def cmd_torsion(cfg: RunConfig) -> dict:
    report = log_torsion_cone(cfg.cross_section, _params(cfg))
    result = {
        "log_torsion": report.log_t,
        "top": report.top,
        "tors": report.tors,
        "res": report.res,
        "anomaly_integral": report.anomaly_integral,
        "per_slice": {str(k): v for k, v in report.per_slice.items()},
    }
    return _report(cfg, result, report.provenance)


def cmd_truncated(cfg: RunConfig) -> dict:
    if cfg.epsilon is None:
        raise ConfigError("epsilon", "required for the truncated subcommand")
    started = time.time()
    cs = cfg.cross_section
    cone = log_torsion_cone(cs, _params(cfg))
    value = log_torsion_truncated(cs, cfg.epsilon)
    diff = torsion_difference(cs, cfg.epsilon, cone.tors)
    result = {
        "log_torsion_truncated": value,
        "epsilon": cfg.epsilon,
        "difference_formula": diff,
        "cross_route_residual": abs(diff - (value - cone.log_t)),
    }
    return _report(cfg, result, {"wall_time_s": time.time() - started})


def cmd_anomaly(cfg: RunConfig) -> dict:
    started = time.time()
    cs = cfg.cross_section
    res, anomaly = res_term(cs)
    result = {"anomaly_integral": anomaly, "res": res}
    return _report(cfg, result, {"wall_time_s": time.time() - started})


def cmd_scaling(cfg: RunConfig) -> dict | str:
    mu_grid = cfg.mu_grid or [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    started = time.time()
    rows, fitted = tors_scaling_profile(cfg.cross_section, mu_grid, _params(cfg))
    if cfg.output_format == "csv":
        lines = ["mu,tors,abs_tors_mu_over_log_mu"]
        for row in rows:
            bound = "" if row.bound is None else repr(row.bound)
            lines.append(f"{row.mu!r},{row.tors!r},{bound}")
        return "\n".join(lines) + "\n"
    result = {
        "rows": [{"mu": row.mu, "tors": row.tors, "bound": row.bound} for row in rows],
        "fitted_bound_constant": None if math.isnan(fitted) else fitted,
    }
    return _report(cfg, result, {"wall_time_s": time.time() - started})


def cmd_dump_olver(order: int) -> dict:
    """Exact coefficient tables u_r, v_r, D_r, z_{r,b} with 'p/q' rationals."""
    if order < 1 or order > DEFAULT_MAX_ORDER:
        raise ConfigError("order", f"must lie in 1..{DEFAULT_MAX_ORDER}")

    def frac(f: Fraction) -> str:
        return f"{f.numerator}/{f.denominator}"

    doc: dict = {"u": {}, "v": {}, "d": {}, "z": {}}
    for r in range(0, order + 1):
        ur, vr = olver_pair(r)
        doc["u"][str(r)] = {str(e): frac(c) for e, c in sorted(ur.items())}
        doc["v"][str(r)] = {str(e): frac(c) for e, c in sorted(vr.items())}
    for r in range(1, order + 1):
        doc["d"][str(r)] = {str(e): frac(c) for e, c in sorted(d_poly(r).items())}
        doc["z"][str(r)] = {
            str(b): {str(deg): frac(c) for deg, c in sorted(ap.items())}
            for b, ap in sorted(z_table(r).items())
        }
    return doc


def cmd_dump_spectrum(cfg: RunConfig) -> dict:
    """Each degree: the shared levels [eta, lattice points], its weight and its weighted heat model."""
    cs = cfg.cross_section
    sl = build_slices(cs, _params(cfg), plan_t0(cs))
    levels = [[float(e), int(c)] for e, c in zip(sl.eta, sl.counts)]
    slices = {}
    for k in range(cs.dim_n):
        weight = cs.coclosed_point_multiplicity(k)
        heat = theta_heat_coeffs(cs, k)
        slices[str(k)] = {
            "alpha": cs.alpha(k),
            "betti": cs.betti(k),
            "cutoff": sl.cutoff,
            "point_multiplicity": weight,
            "heat_powers": heat.powers,
            "heat_coefficients": [weight * c for c in heat.coefficients],
            "levels": levels,
        }
    return _report(cfg, {"slices": slices}, {})


def cmd_dump_zeta(cfg: RunConfig) -> dict:
    """Each degree k < n/2 is row k of the split; degree n-1-k, of equal weight, negates its shift."""
    cs = cfg.cross_section
    n, h = cs.dim_n, cs.dim_n // 2
    split = build_splits(cs, _params(cfg))
    evals = [build_zeta_eval(split, k, cs.coclosed_point_multiplicity(k)) for k in range(h)]
    slices = {}
    for k in range(n):
        j, sign = (k, +1) if k < h else (n - 1 - k, -1)
        ev = evals[j]
        slices[str(k)] = {
            "alpha": cs.alpha(k),
            "residues": {str(r): v for r, v in ev.residues.items()},
            "zeta0": ev.zeta0,
            "zeta_prime0": ev.zeta_prime0,
            "pp_values": {str(r): v for r, v in ev.pp_values.items()},
            "shifted0": {"plus": ev.shifted0[sign], "minus": ev.shifted0[-sign]},
            "shifted_prime0": {
                "plus": ev.shifted_prime0[sign],
                "minus": ev.shifted_prime0[-sign],
            },
            "err": ev.err,
        }
    return _report(cfg, {"slices": slices}, {})


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------


def _check_m_at_one_identity(inputs: _VerifyInputs) -> float:
    worst = Fraction(0)
    for r in range(1, 7):
        for a in (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)):
            lhs = m_poly_eval(r, Fraction(1), a)
            rhs = eval_t_poly(d_poly(r), Fraction(1)) - (-a) ** r / r
            worst = max(worst, abs(lhs - rhs))
    return float(worst)


def _check_zdiff_sum_identity(inputs: _VerifyInputs) -> float:
    worst = Fraction(0)
    for r in range(1, 7):
        for a in (Fraction(1, 2), Fraction(3, 2)):
            diffs = z_diff_by_b(r, a)
            lhs = sum(diffs.values(), start=Fraction(0))
            rhs = ((-a) ** r - a**r) / r
            worst = max(worst, abs(lhs - rhs))
    return float(worst)


def _check_z2_table(inputs: _VerifyInputs) -> float:
    table = z_table(2)
    pinned = {
        0: {0: Fraction(-3, 16), 1: Fraction(1, 2), 2: Fraction(-1, 2)},
        1: {0: Fraction(5, 8), 1: Fraction(-1, 2)},
        2: {0: Fraction(-7, 16)},
    }
    return 0.0 if table == pinned else 1.0


def _wronskian_draws() -> tuple[np.ndarray, np.ndarray]:
    """The 100 (nu, x) draws of the wronskian check: nu uniform on [0, 50)
    and x on [0.1, 50), alternating, from one batch of 200 uniforms (each
    low + (high - low) u, as ``Generator.uniform`` forms it)."""
    u = np.random.default_rng(20240901).random(200).reshape(100, 2)
    return 50.0 * u[:, 0], 0.1 + (50.0 - 0.1) * u[:, 1]


def _check_wronskian(inputs: _VerifyInputs) -> float:
    return float(np.max(wronskian_residual(*_wronskian_draws())))


def _check_uniform(inputs: _VerifyInputs) -> float:
    grid = [(nu, z) for nu in (30.0, 60.0, 120.0) for z in (0.4, 1.0, 2.5)]
    nu, z = np.array(grid).T
    q = modified_bessels(nu, nu * z, scaled=False)
    worst = 0.0
    for j, (nu_j, z_j) in enumerate(grid):
        # keep the truncation estimate above the reference's own noise floor
        n_terms = 5 if nu_j <= 40 else (4 if nu_j <= 80 else 3)
        direct = {"I": q.i_val, "Iprime": q.i_prime, "K": q.k_val, "Kprime": q.k_prime}
        for kind, ref in direct.items():
            val, est = uniform_expansion(kind, nu_j, z_j, n_terms)
            defect = abs(val - float(ref[j])) / est if est > 0 else math.inf
            worst = max(worst, defect)
    return worst  # must be <= 1: error within the reported bound


def _det_grid_entries() -> list[tuple[ModelOperatorSpec, float]]:
    """The 150 (spec, z) entries of the det-ratio-oracle-grid check."""
    return [
        (ModelOperatorSpec(kind, nu, 0.5, eps), z)
        for kind in ("psi_truncated", "phi_truncated")
        for nu in (1.0, 2.0, 3.5, 6.0, 10.0)
        for z in (0.1, 0.4, 1.0, 2.0, 4.0)
        for eps in (0.1, 0.25, 0.5)
    ]


def _harmonic_specs() -> list[ModelOperatorSpec]:
    """The 9 entries of the harmonic-det check, all at z = 0."""
    return [
        ModelOperatorSpec("harmonic_H0", abs(alpha), alpha, eps)
        for alpha in (0.5, 1.5, 2.5)
        for eps in (0.1, 0.25, 0.5)
    ]


def _check_det_grid(inputs: _VerifyInputs) -> float:
    grid = _det_grid_entries()
    cf = model_det_ratios([spec for spec, _ in grid], [z for _, z in grid])
    gy, _ = inputs.gy
    return float(np.max(np.abs(cf - gy) / np.abs(cf)))


def _check_harmonic(inputs: _VerifyInputs) -> float:
    closed = np.array([harmonic_det(spec.alpha, spec.eps) for spec in _harmonic_specs()])
    _, gy = inputs.gy
    return float(np.max(np.abs(closed - gy) / closed))


# two non-symmetric T^2 bases, whose row and column lattices differ, and the
# times t of the heat-trace identity
_HEAT_BASES = ([[1.0, 1.0], [0.0, 2.0]], [[1.0, 0.0], [1.0, 2.0]])
_HEAT_TIMES = (0.7, 0.1)


def _heat_windows(cs: CrossSection):
    """(t, dual levels, their counts, primal norms, their counts) at each t
    of _HEAT_TIMES, with windows to the e^(-50) horizon: eta <= 50 / t and
    |p|^2 <= 200 t.  The dual window is enumerated once at the smallest t
    and the primal one once at the largest, and each is trimmed per t by
    the ``<= bound (1 + 1e-12)`` rule of ``lattice_eta_levels`` and
    ``primal_norms``."""
    eta, mult = cs.lattice_eta_levels(50.0 / min(_HEAT_TIMES))
    sq, counts = cs.primal_norms(200.0 * max(_HEAT_TIMES))
    for t in _HEAT_TIMES:
        dual = eta <= 50.0 / t * (1 + 1e-12)
        primal = sq <= 200.0 * t * (1 + 1e-12)
        yield t, eta[dual], mult[dual], sq[primal], counts[primal]


def _check_heat_identity(inputs: _VerifyInputs) -> float:
    """Worst relative residual of the heat-trace identity

        1 + sum m e^(-eta t) = Vol / (4 pi t)^(n/2) (1 + sum c e^(-|p|^2 / 4t))

    between the dual levels and the primal norms of the two bases of
    _HEAT_BASES at each t of _HEAT_TIMES (``_heat_windows``), with both sums
    through B's kernel ``theta_sums``."""
    worst = 0.0
    for basis in _HEAT_BASES:
        cs = CrossSection(2, np.array(basis))
        for t, eta, mult, sq, counts in _heat_windows(cs):
            dual = 1.0 + theta_sums(eta, mult, np.array([1.0 / t]))[0]
            primal = 1.0 + theta_sums(sq, counts, np.array([4.0 * t]))[0]
            ratio = dual / (cs.volume / (4.0 * math.pi * t) * primal)
            worst = max(worst, abs(ratio - 1.0))
    return worst


class _VerifyInputs:
    """Inputs that several verify checks read, each built on first use and at
    most once per verify run."""

    @functools.cached_property
    def unit_t2(self) -> MellinSplit:
        """The Mellin split of the default unit T^2 at its default tolerance."""
        cfg = parse_config(DEFAULT_CONFIG)
        return build_splits(cfg.cross_section, _params(cfg))

    @functools.cached_property
    def first_order(self) -> FirstOrderZeta:
        """The first-order oracle of the unit-T^2 degree-0 slice with the
        rows +alpha and -alpha, which share one B quadrature."""
        sl = self.unit_t2.sl
        return FirstOrderZeta(sl, (sl.alpha, -sl.alpha))

    @functools.cached_property
    def gy(self) -> tuple[np.ndarray, np.ndarray]:
        """Gelfand-Yaglom values of the det-ratio grid and of the harmonic
        entries, from one batched solve."""
        grid, harmonic = _det_grid_entries(), _harmonic_specs()
        specs = [spec for spec, _ in grid] + harmonic
        zs = [z for _, z in grid] + [0.0] * len(harmonic)
        values = gy_det_ratio_oracles(specs, zs)
        return values[: len(grid)], values[len(grid) :]


def _check_zeta_exp(inputs: _VerifyInputs) -> float:
    ms = inputs.unit_t2
    worst = 0.0
    for row, sign in enumerate((+1, -1)):
        oracle = inputs.first_order.zeta0(row)
        worst = max(worst, abs(shifted_zeta0(ms, sign) - oracle))
    return worst


def _check_shifted_derivative_route(inputs: _VerifyInputs) -> float:
    ms = inputs.unit_t2
    worst = 0.0
    for row, sign in enumerate((+1, -1)):
        oracle = inputs.first_order.zeta_prime0(row)
        value, _ = shifted_zeta_prime0(ms, sign)
        worst = max(worst, abs(value - oracle))
    return worst


def _check_tors_duality(inputs: _VerifyInputs) -> float:
    return tors_term(inputs.unit_t2).cross_check_residual


def _check_regularization(inputs: _VerifyInputs) -> float:
    worst = 0.0
    for nu, alpha, eps in ((2.5, 0.5, 0.25), (3.5, 1.5, 0.1), (4.5, 0.5, 0.5)):
        _, p_small = t_eta_lambda(nu, alpha, eps, -1e-8)
        _, p_large = t_eta_lambda(nu, alpha, eps, -1e6)
        b = ab_constant(nu, alpha, 2)
        worst = max(worst, abs(p_small) / 1e-6, abs(p_large - b) / 1e-4)
    return worst  # must be <= 1


_CHECKS: list[tuple[str, str, Callable[[_VerifyInputs], float], float]] = [
    ("lattice", "heat-identity", _check_heat_identity, 1e-12),
    ("olver", "m-at-one-identity", _check_m_at_one_identity, 0.0),
    ("olver", "z-diff-sum-identity", _check_zdiff_sum_identity, 0.0),
    ("olver", "z2-table", _check_z2_table, 0.0),
    ("bessel", "wronskian", _check_wronskian, 1e-12),
    ("bessel", "uniform-expansion", _check_uniform, 1.0),
    ("detratio", "det-ratio-oracle-grid", _check_det_grid, 1e-6),
    ("detratio", "harmonic-det", _check_harmonic, 1e-6),
    ("zeta", "shifted-zeta0", _check_zeta_exp, 1e-12),
    ("zeta", "shifted-zeta-prime0", _check_shifted_derivative_route, 1e-12),
    ("torsion", "tors-duality", _check_tors_duality, 1e-8),
    ("torsion", "regularization-surface", _check_regularization, 1.0),
]


def cmd_verify(what: Optional[str]) -> int:
    if what and not any(what in (grp, name) for grp, name, _, _ in _CHECKS):
        groups = ", ".join(dict.fromkeys(grp for grp, _, _, _ in _CHECKS))
        names = ", ".join(name for _, name, _, _ in _CHECKS)
        raise ConfigError(
            "verify", f"unknown group or check {what!r}; groups: {groups}; checks: {names}"
        )
    inputs = _VerifyInputs()
    failures: list[tuple[str, float, float]] = []
    for grp, name, fn, bound in _CHECKS:
        if what and what not in (grp, name):
            continue
        value = fn(inputs)
        ok = value <= bound
        status = "pass" if ok else "FAIL"
        print(f"{status}  {name:28s} worst={value:.3e}  bound={bound:.3e}")
        if not ok:
            failures.append((name, value, bound))
    if failures:
        worst = max(failures, key=lambda f: f[1] / max(f[2], 1e-300))
        print(
            f"verification failed: worst offender {worst[0]} "
            f"(worst={worst[1]:.3e}, bound={worst[2]:.3e})",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Command(NamedTuple):
    """A subcommand.  One that reads ``--config`` hands its handler the
    parsed configuration, any other its arguments by name."""

    handler: Callable
    help: str
    flags: tuple[str, ...]


_FLAGS = {
    "--config": dict(help="path to a schema-1 JSON configuration"),
    "--out": dict(help="output file (default: stdout)"),
    "--tolerance": dict(type=float, help="bound on each K-series tail per lattice point; the error in log T is not bounded by it"),
    "--cutoff": dict(type=float, help="eigenvalue cutoff"),
    "--epsilon": dict(type=float, help="truncation parameter in (0,1)"),
    "--mu": dict(help="comma-separated scaling grid, e.g. 2,4,8"),
    "--format": dict(choices=["json", "csv"], help="json (default) or csv"),
    "what": dict(nargs="?", help="restrict to one check group or check name"),
    "--order": dict(type=int, default=6, help="highest order r (<= 12)"),
}
_RUN = ("--config", "--out", "--tolerance", "--cutoff")

_COMMANDS = {
    "torsion": _Command(cmd_torsion, "assemble the full cone torsion report", _RUN),
    "truncated": _Command(cmd_truncated, "scalar log torsion of the truncated cone", (*_RUN, "--epsilon")),
    "anomaly": _Command(cmd_anomaly, "boundary anomaly integral", ("--config", "--out")),
    "scaling": _Command(cmd_scaling, "Tors under metric scaling", (*_RUN, "--mu", "--format")),
    "dump-spectrum": _Command(cmd_dump_spectrum, "enumerated spectral slices", _RUN),
    "dump-zeta": _Command(cmd_dump_zeta, "zeta continuation artifacts per slice", _RUN),
    "verify": _Command(cmd_verify, "run the identity and oracle suite", ("what",)),
    "dump-olver": _Command(cmd_dump_olver, "exact expansion-coefficient tables", ("--order", "--out")),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: argparse asks the
    terminal for its size at every argument, and parsing leaves the parser
    as it was."""
    parser = argparse.ArgumentParser(
        prog="conetorsion",
        description="Analytic torsion of bounded cones over model cross-sections",
    )
    parser.add_argument("--version", action="version", version=f"conetorsion {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _config_from_args(args: dict) -> RunConfig:
    if args["config"]:
        doc = read_config_document(args["config"])
    else:
        doc = json.loads(json.dumps(DEFAULT_CONFIG))
    if not isinstance(doc, dict):
        raise ConfigError("$", "configuration must be a JSON object")
    # a subcommand's namespace holds only the flags it declares
    given = {key: val for key, val in args.items() if val is not None}
    # a flag displaces both config keys; two flags meet parse_config's
    # "exactly one" refusal
    flags = {key: given[key] for key in ("tolerance", "cutoff") if key in given}
    if flags:
        doc.pop("tolerance", None)
        doc.pop("cutoff", None)
        doc.update(flags)
    if "epsilon" in given:
        doc["epsilon"] = given["epsilon"]
    if "mu" in given:
        try:
            doc["mu_grid"] = [float(v) for v in given["mu"].split(",") if v]
        except ValueError:
            raise ConfigError("mu_grid", "must be a comma-separated list of numbers") from None
    output = {key: given[flag] for flag, key in (("out", "path"), ("format", "format")) if flag in given}
    if output:
        current = doc.get("output")
        if current is not None and not isinstance(current, dict):
            raise ConfigError("output", "must be an object")
        doc["output"] = {**(current or {}), **output}
    return parse_config(doc)


# what the library raises when a computation cannot meet its contract; any
# other exception is a defect and propagates with its traceback
_NUMERICAL_FAILURES = (DomainError, CutoffInsufficientError, ArithmeticError, ODEIntegrationError)


def main(argv: Optional[list[str]] = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    name = args.pop("command")
    command = _COMMANDS[name]
    try:
        if "--config" in command.flags:
            cfg = _config_from_args(args)
            if cfg.output_format == "csv" and "--format" not in command.flags:
                raise ConfigError("output.format", "csv is written only by scaling")
            report, path = command.handler(cfg), cfg.output_path
        elif "--out" in command.flags:
            path = args.pop("out")
            report = command.handler(**args)
        else:  # verify prints its own lines and returns its exit code
            return command.handler(**args)
        _write_report(report if isinstance(report, str) else dumps(report, name), path)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_FAILURES as exc:  # exit 1 with the offender
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
