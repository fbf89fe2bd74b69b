"""CLI contract: exit codes, report shapes, determinism, and overrides."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conetorsion import cli, firstorder, zeta
from conetorsion import torsion as T
from conetorsion.config import FIELDS, parse_config
from conetorsion.crosssection import CROSS_SECTION_FIELDS, CrossSection
from conetorsion.errors import DomainError


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


UNIT_T2 = {
    "schema": 1,
    "cross_section": {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 0], [0, 1]]},
    "tolerance": 1e-10,
}


def test_torsion_report(tmp_path, capsys):
    cfg = _write_config(tmp_path, UNIT_T2)
    out = tmp_path / "report.json"
    assert cli.main(["torsion", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    res = doc["result"]["res"]
    assert abs(res - 1.0 / (16.0 * math.pi)) / res <= 1e-10
    assert doc["result"]["log_torsion"] == pytest.approx(
        doc["result"]["top"] + doc["result"]["tors"] + doc["result"]["res"]
    )
    assert doc["provenance"]["version"]


def test_config_error_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"schema": 1})
    assert cli.main(["torsion", "--config", cfg]) == 2
    assert "cross_section" in capsys.readouterr().err
    bad = _write_config(tmp_path, {**UNIT_T2, "cutoff": 100.0}, "bad.json")
    assert cli.main(["torsion", "--config", bad]) == 2  # cutoff AND tolerance
    odd = dict(UNIT_T2)
    odd["cross_section"] = {"family": "flat_torus", "dim_n": 3, "lattice_basis": [[1]]}
    assert cli.main(["torsion", "--config", _write_config(tmp_path, odd, "odd.json")]) == 2
    err = capsys.readouterr().err
    assert "dim_n" in err


def test_missing_epsilon_for_truncated(tmp_path, capsys):
    cfg = _write_config(tmp_path, UNIT_T2)
    assert cli.main(["truncated", "--config", cfg]) == 2
    assert "epsilon" in capsys.readouterr().err


def test_truncated_report(tmp_path):
    cfg = _write_config(tmp_path, UNIT_T2)
    out = tmp_path / "trunc.json"
    assert cli.main(["truncated", "--config", cfg, "--epsilon", "0.25", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["epsilon"] == 0.25
    assert doc["result"]["cross_route_residual"] <= 1e-8


def test_anomaly_closed_form(tmp_path):
    cfg = _write_config(tmp_path, UNIT_T2)
    out = tmp_path / "anomaly.json"
    assert cli.main(["anomaly", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["closed_form_rel_error"] <= 1e-10


def test_scaling_csv(tmp_path):
    cfg = _write_config(tmp_path, UNIT_T2)
    out = tmp_path / "scaling.csv"
    assert (
        cli.main(
            ["scaling", "--config", cfg, "--mu", "2,4,8", "--format", "csv", "--out", str(out)]
        )
        == 0
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "mu,tors,abs_tors_mu_over_log_mu"
    assert len(lines) == 4
    bounds = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(math.isfinite(b) for b in bounds)


def test_dump_spectrum_and_zeta(tmp_path):
    cfg = _write_config(tmp_path, UNIT_T2)
    out = tmp_path / "spec.json"
    assert cli.main(["dump-spectrum", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    sl0 = doc["result"]["slices"]["0"]
    assert sl0["levels"][0][0] == pytest.approx(4 * math.pi**2)
    assert sl0["levels"][0][1] == 4
    out2 = tmp_path / "zeta.json"
    assert cli.main(["dump-zeta", "--config", cfg, "--out", str(out2)]) == 0
    doc2 = json.loads(out2.read_text())
    z = doc2["result"]["slices"]["0"]
    assert z["shifted0"]["plus"] == pytest.approx(-1.0, abs=1e-12)
    assert set(z["err"]) >= {"zeta0", "shifted_prime0"}


def _strip_wall_time(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if "wall_time_s" not in line
    )


def test_deterministic_reports(tmp_path):
    cfg = _write_config(tmp_path, UNIT_T2)
    outs = []
    for i, threads in enumerate((1, 1, 2)):
        out = tmp_path / f"r{i}.json"
        assert (
            cli.main(["torsion", "--config", cfg, "--threads", str(threads), "--out", str(out)])
            == 0
        )
        outs.append(_strip_wall_time(out.read_text()))
    assert outs[0] == outs[1]
    # same numerical payload across thread counts (threads is provenance)
    strip = lambda s: "\n".join(l for l in s.splitlines() if '"threads"' not in l)
    assert strip(outs[0]) == strip(outs[2])


def test_skinny_torus_torsion_runs_deterministically(tmp_path):
    """``conetorsion torsion`` on the skinny diag(100, 0.01) T^2, whose first
    dual levels sit at |alpha| / nu = 0.99, exits 0 in two fresh processes
    with reports equal byte for byte apart from ``wall_time_s``."""
    doc = {**UNIT_T2, "cross_section": {**UNIT_T2["cross_section"], "lattice_basis": [[100, 0], [0, 0.01]]}}
    cfg = _write_config(tmp_path, doc)
    reports = []
    for i in range(2):
        out = tmp_path / f"skinny{i}.json"
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from conetorsion.cli import main; sys.exit(main())",
             "torsion", "--config", cfg, "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1])),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert math.isfinite(json.loads(out.read_text())["result"]["log_torsion"])
        reports.append(_strip_wall_time(out.read_text()))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", ["torsion", "truncated", "anomaly", "scaling", "dump-zeta"])
def test_threads_is_accepted_and_recorded(tmp_path, command):
    """Schema-1 ``threads`` still validates and is echoed in provenance, both
    from the config file and from --threads, which takes precedence."""
    extra = {"truncated": ["--epsilon", "0.25"], "scaling": ["--mu", "2"]}.get(command, [])
    cfg = _write_config(tmp_path, {**UNIT_T2, "threads": 2})
    out = tmp_path / "report.json"
    for flags, expected in (([], 2), (["--threads", "3"], 3)):
        assert cli.main([command, "--config", cfg, *extra, *flags, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["provenance"]["threads"] == expected


@pytest.mark.parametrize("threads", [0, True, "2"])
def test_invalid_threads_is_config_error(tmp_path, capsys, threads):
    cfg = _write_config(tmp_path, {**UNIT_T2, "threads": threads})
    assert cli.main(["torsion", "--config", cfg]) == 2
    assert "threads:" in capsys.readouterr().err


UNIT_T2_CUTOFF = {key: value for key, value in UNIT_T2.items() if key != "tolerance"}


@pytest.mark.parametrize(
    "command, doc, flags, field",
    [
        ("scaling", UNIT_T2, ["--mu", "2,inf"], "mu_grid[1]"),
        ("scaling", {**UNIT_T2, "mu_grid": [2, math.inf]}, [], "mu_grid[1]"),
        ("torsion", UNIT_T2, ["--tolerance", "inf"], "tolerance"),
        ("torsion", UNIT_T2, ["--cutoff", "inf"], "cutoff"),
        ("torsion", {**UNIT_T2_CUTOFF, "cutoff": 10**400}, [], "cutoff"),
        ("truncated", {**UNIT_T2, "epsilon": math.inf}, [], "epsilon"),
        ("truncated", UNIT_T2, ["--epsilon", "inf"], "epsilon"),
    ],
)
def test_non_finite_number_is_config_error(tmp_path, capsys, command, doc, flags, field):
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out.json"
    assert cli.main([command, "--config", cfg, *flags, "--out", str(out)]) == 2
    assert f"{field}: must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_float_serialization_is_lossless():
    value = 0.1 + 0.2
    text = cli.dumps17({"x": value})
    assert json.loads(text)["x"] == value


def test_verify_group(capsys):
    assert cli.cmd_verify("olver") == 0
    out = capsys.readouterr().out
    assert "m-at-one-identity" in out and "wronskian" not in out


@pytest.mark.parametrize(
    "flags",
    [
        ["--config", "cfg.json"],
        ["--out", "v.txt"],
        ["--format", "json"],
        ["--threads", "2"],
        ["--tolerance", "1e-8"],
        ["--cutoff", "200"],
        ["--epsilon", "0.25"],
        ["--mu", "2,4"],
    ],
)
def test_verify_takes_no_run_flags(tmp_path, monkeypatch, capsys, flags):
    """verify runs fixed checks, so a flag it would ignore is a usage error."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "olver", *flags])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "v.txt").exists()


@pytest.mark.parametrize(
    "command, extra",
    [
        ("torsion", []),
        ("truncated", ["--epsilon", "0.25"]),
        ("anomaly", []),
        ("dump-spectrum", []),
        ("dump-zeta", []),
    ],
)
def test_csv_is_config_error_outside_scaling(tmp_path, capsys, command, extra):
    """Only scaling writes CSV; any other command refuses the format, from
    the flag and from the config file, before it writes anything."""
    out = tmp_path / "report.csv"
    plain = _write_config(tmp_path, UNIT_T2)
    in_file = _write_config(
        tmp_path, {**UNIT_T2, "output": {"path": str(out), "format": "csv"}}, "csv.json"
    )
    for argv in (
        [command, "--config", plain, *extra, "--format", "csv", "--out", str(out)],
        [command, "--config", in_file, *extra],
    ):
        assert cli.main(argv) == 2
        assert "output.format: csv is written only by scaling" in capsys.readouterr().err
        assert not out.exists()


def test_round_sphere_is_config_error(tmp_path, capsys):
    doc = {**UNIT_T2, "cross_section": {"family": "round_sphere", "dim_n": 2, "radius": 1.0}}
    assert cli.main(["torsion", "--config", _write_config(tmp_path, doc)]) == 2
    assert "cross_section.family" in capsys.readouterr().err


def _eye(n):
    return [[float(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "cross_section, field",
    [
        ({"dim_n": 4.5, "lattice_basis": _eye(4)}, "cross_section.dim_n"),
        ({"dim_n": 4.0, "lattice_basis": _eye(4)}, "cross_section.dim_n"),
        ({"dim_n": "4", "lattice_basis": _eye(4)}, "cross_section.dim_n"),
        ({"dim_n": True, "lattice_basis": _eye(2)}, "cross_section.dim_n"),
        ({"dim_n": 2, "lattice_basis": [["1", 0], [0, 1]]}, "cross_section.lattice_basis[0][0]"),
        ({"dim_n": 2, "lattice_basis": [[1, 0], [0, True]]}, "cross_section.lattice_basis[1][1]"),
        ({"dim_n": 2, "lattice_basis": [[1, 0], [None, 1]]}, "cross_section.lattice_basis[1][0]"),
        ({"dim_n": 2, "lattice_basis": [[10**400, 0], [0, 1]]}, "cross_section.lattice_basis"),
        ({"dim_n": 2, "lattice_basis": [1, 0]}, "cross_section.lattice_basis"),
    ],
    ids=["dim_n-4.5", "dim_n-4.0", "dim_n-string", "dim_n-bool", "basis-string", "basis-bool",
         "basis-null", "basis-overflow", "basis-flat"],
)
def test_non_integer_dim_n_and_non_number_basis_entry_are_config_errors(
    tmp_path, capsys, cross_section, field
):
    """The schema wants an integer dim_n and number entries in the basis: a
    float, string or bool is refused by name, not converted and run."""
    doc = {**UNIT_T2, "cross_section": {"family": "flat_torus", **cross_section}}
    out = tmp_path / "out.json"
    assert cli.main(["torsion", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert f"{field}: must be" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_path_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, UNIT_T2)
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.json"
    assert cli.main(["anomaly", "--config", cfg, "--out", str(missing_dir)]) == 2
    assert "output.path" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys):
    """A cutoff below the Mellin summation horizon is a numerical failure:
    exit 1 with the offending condition on stderr."""
    cfg = _write_config(tmp_path, UNIT_T2)
    assert cli.main(["torsion", "--config", cfg, "--cutoff", "10"]) == 1
    assert "cutoff" in capsys.readouterr().err


def test_dump_olver_exact_rationals(tmp_path):
    out = tmp_path / "olver.json"
    assert cli.main(["dump-olver", "--order", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["u"]["1"] == {"1": "1/8", "3": "-5/24"}
    assert doc["v"]["1"] == {"1": "-3/8", "3": "7/24"}
    assert doc["z"]["2"]["0"] == {"0": "-3/16", "1": "1/2", "2": "-1/2"}


def test_cli_overrides_drop_conflicting_keys(tmp_path):
    doc = dict(UNIT_T2)
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "o.json"
    # --cutoff must displace the config tolerance, not conflict with it
    assert cli.main(["anomaly", "--config", cfg, "--cutoff", "200", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["provenance"]["cutoff"] == 200.0
    assert report["provenance"]["tolerance"] is None


@pytest.mark.parametrize("config", [False, True])
def test_tolerance_and_cutoff_flags_together_are_config_error(tmp_path, capsys, config):
    """Both flags are refused like a document with both keys, with or
    without a config file, instead of one flag silently dropping the other."""
    out = tmp_path / "o.json"
    argv = ["torsion", "--tolerance", "1e-8", "--cutoff", "2000", "--out", str(out)]
    if config:
        argv += ["--config", _write_config(tmp_path, UNIT_T2)]
    assert cli.main(argv) == 2
    assert "cutoff: give exactly one of cutoff / tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_missing_or_unreadable_config_is_config_error(tmp_path, capsys):
    assert cli.main(["torsion", "--config", str(tmp_path / "absent.json")]) == 2
    assert "not found" in capsys.readouterr().err
    assert cli.main(["torsion", "--config", str(tmp_path)]) == 2  # a directory
    assert "not readable" in capsys.readouterr().err


def test_verify_unknown_group_is_config_error(capsys):
    assert cli.main(["verify", "besel"]) == 2
    err = capsys.readouterr().err
    assert "besel" in err
    assert "bessel" in err and "det-ratio-oracle-grid" in err  # the valid names


def test_verify_heat_identity_pins_the_column_lattice(monkeypatch, capsys):
    """The heat-identity check holds to 1e-12 on the non-symmetric bases and
    fails once the primal window is the row lattice B^T again."""
    assert cli._check_heat_identity() <= 1e-12
    assert cli.main(["verify", "heat-identity"]) == 0
    window = CrossSection._window

    def row_window(self, key, bound):
        if key == "primal":
            return self.lattice_basis.T, math.sqrt(bound)
        return window(self, key, bound)

    monkeypatch.setattr(CrossSection, "_window", row_window)
    assert cli._check_heat_identity() > 1e-3
    assert cli.main(["verify", "heat-identity"]) == 1
    assert "heat-identity" in capsys.readouterr().err


def test_parser_is_built_once_and_left_unchanged(tmp_path, capsys):
    """One process reuses one parser: a flag given to one call does not leak
    into the next, and a usage error leaves the parser working."""
    assert cli._build_parser() is cli._build_parser()
    cfg = _write_config(tmp_path, UNIT_T2)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["torsion", "--config", cfg, "--tolerance", "1e-8", "--out", str(a)]) == 0
    assert cli.main(["torsion", "--config", cfg, "--out", str(b)]) == 0
    assert json.loads(a.read_text())["provenance"]["tolerance"] == 1e-8
    assert json.loads(b.read_text())["provenance"]["tolerance"] == UNIT_T2["tolerance"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["torsion", "--bogus"])
    assert exc.value.code == 2
    assert cli.main(["torsion", "--config", cfg, "--out", str(b)]) == 0
    assert json.loads(b.read_text())["provenance"]["tolerance"] == UNIT_T2["tolerance"]


def test_defect_in_a_handler_propagates(tmp_path, monkeypatch):
    """Only the library's numerical failures become exit 1; a KeyError from a
    bug surfaces with its traceback."""

    def broken(cfg):
        raise KeyError("missing")

    monkeypatch.setattr(cli, "cmd_anomaly", broken)
    with pytest.raises(KeyError):
        cli.main(["anomaly", "--config", _write_config(tmp_path, UNIT_T2)])


def test_domain_error_exits_1(tmp_path, monkeypatch, capsys):
    def out_of_domain(cfg):
        raise DomainError("nu must be positive")

    monkeypatch.setattr(cli, "cmd_anomaly", out_of_domain)
    assert cli.main(["anomaly", "--config", _write_config(tmp_path, UNIT_T2)]) == 1
    assert "nu must be positive" in capsys.readouterr().err


SHEARED_T2 = {
    **UNIT_T2,
    "cross_section": {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 0.37], [0, 1]]},
}
UNIT_T4 = {
    "schema": 1,
    "cross_section": {
        "family": "flat_torus",
        "dim_n": 4,
        "lattice_basis": [[float(i == j) for j in range(4)] for i in range(4)],
    },
    "tolerance": 1e-8,
}


@pytest.mark.parametrize("doc,splits", [(SHEARED_T2, 1), (UNIT_T4, 2)], ids=["t2", "t4"])
def test_truncated_builds_each_split_once(tmp_path, monkeypatch, doc, splits):
    """A ``truncated`` job builds one slice set, for the cone, whose Tors
    the difference formula reads: one MellinSplit per built slice, degrees
    k < n/2."""
    built = []
    init = zeta.MellinSplit.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(zeta.MellinSplit, "__init__", counting_init)
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "trunc.json"
    assert cli.main(["truncated", "--config", cfg, "--epsilon", "0.25", "--out", str(out)]) == 0
    assert len(built) == splits


def _count_shifted_calls(monkeypatch) -> dict[str, int]:
    """Count the torsion module's shifted_zeta0 and shifted_zeta_prime0 calls."""
    calls = {"shifted_zeta0": 0, "shifted_zeta_prime0": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(T, name, counting(name, getattr(zeta, name)), raising=False)
    return calls


@pytest.mark.parametrize("doc", [SHEARED_T2, UNIT_T4], ids=["t2", "t4"])
def test_truncated_sums_each_shifted_derivative_once(tmp_path, monkeypatch, doc):
    """A ``truncated`` job evaluates zeta'_k(0, +-alpha_k) once per slice
    k < n/2 and sign, for the cone's Tors; the difference formula reuses it."""
    calls = _count_shifted_calls(monkeypatch)
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "trunc.json"
    assert cli.main(["truncated", "--config", cfg, "--epsilon", "0.25", "--out", str(out)]) == 0
    n = doc["cross_section"]["dim_n"]
    assert calls == {"shifted_zeta0": 0, "shifted_zeta_prime0": 2 * (n // 2)}


def test_scaling_rows_sum_only_shifted_derivatives(tmp_path, monkeypatch):
    """Each scaling row is tors_term on the rescaled slices: two shifted
    derivatives per slice and no zeta(0, +-a), whose -log(mu) terms cancel."""
    calls = _count_shifted_calls(monkeypatch)
    cfg = _write_config(tmp_path, SHEARED_T2)
    out = tmp_path / "scaling.json"
    assert cli.main(["scaling", "--config", cfg, "--mu", "2,4,8", "--out", str(out)]) == 0
    assert calls == {"shifted_zeta0": 0, "shifted_zeta_prime0": 2 * 1 * 3}


@pytest.mark.parametrize(
    "command, extra", [("torsion", []), ("truncated", ["--epsilon", "0.25"]), ("dump-zeta", [])]
)
def test_unit_t4_runs_build_the_lower_half_slices_once(tmp_path, monkeypatch, command, extra):
    """A run builds the slices of degrees k < n/2 and one MellinSplit on
    each: 2 of each on unit T^4, whose degrees 2 and 3 are read off 1 and 0."""
    spectra, splits = [], []
    spectrum, init = T.coclosed_spectrum, zeta.MellinSplit.__init__

    def counting_spectrum(*args, **kwargs):
        spectra.append(args)
        return spectrum(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        splits.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(T, "coclosed_spectrum", counting_spectrum)
    monkeypatch.setattr(zeta.MellinSplit, "__init__", counting_init)
    cfg = _write_config(tmp_path, UNIT_T4)
    out = tmp_path / "out.json"
    assert cli.main([command, "--config", cfg, *extra, "--out", str(out)]) == 0
    assert (len(spectra), len(splits)) == (2, 2)


MIRROR_BASES = {
    "unit-t2": _eye(2),
    "sheared-t2": [[1.0, 0.37], [0.0, 1.0]],
    "unit-t4": _eye(4),
    "sheared-x2-t4": [[2.0, 0.74, 0, 0], [0, 2.0, 0, 0], [0, 0, 2.0, 0.4], [0, 0, 0, 2.0]],
}


@pytest.mark.parametrize("setting", [("tolerance", 1e-10), ("cutoff", 700.0)], ids=lambda s: s[0])
@pytest.mark.parametrize("name", list(MIRROR_BASES))
def test_upper_degrees_equal_their_own_slices(tmp_path, name, setting):
    """dump-spectrum and dump-zeta read degree k >= n/2 off slice n-1-k; each
    such entry equals, bit for bit, the one computed on slice k built on its
    own (the reports round-trip floats losslessly)."""
    basis = MIRROR_BASES[name]
    doc = {
        "schema": 1,
        "cross_section": {"family": "flat_torus", "dim_n": len(basis), "lattice_basis": basis},
    }
    path = _write_config(tmp_path, doc)
    key, value = setting
    cs = parse_config(doc).cross_section
    params = T.NumericsParams(**{key: value})
    reports = {}
    for command in ("dump-spectrum", "dump-zeta"):
        out = tmp_path / f"{command}.json"
        assert cli.main([command, "--config", path, f"--{key}", repr(value), "--out", str(out)]) == 0
        reports[command] = json.loads(out.read_text())["result"]["slices"]
    for k in range(cs.dim_n // 2, cs.dim_n):
        sl = T.coclosed_spectrum(cs, k, params.slice_cutoff(cs, k))
        ev = zeta.build_zeta_eval(sl)
        spectrum = {
            "alpha": sl.alpha,
            "betti": cs.betti(k),
            "cutoff": sl.cutoff,
            "point_multiplicity": sl.kappa,
            "heat_powers": sl.heat.powers,
            "heat_coefficients": sl.heat.coefficients,
            "levels": [[float(e), int(m)] for e, m in zip(sl.eta, sl.mult)],
        }
        zeta_entry = {
            "alpha": sl.alpha,
            "residues": {str(r): v for r, v in ev.residues.items()},
            "zeta0": ev.zeta0,
            "zeta_prime0": ev.zeta_prime0,
            "pp_values": {str(r): v for r, v in ev.pp_values.items()},
            "shifted0": {"plus": ev.shifted0[+1], "minus": ev.shifted0[-1]},
            "shifted_prime0": {"plus": ev.shifted_prime0[+1], "minus": ev.shifted_prime0[-1]},
            "err": ev.err,
        }
        assert reports["dump-spectrum"][str(k)] == json.loads(cli.dumps17(spectrum))
        assert reports["dump-zeta"][str(k)] == json.loads(cli.dumps17(zeta_entry))


def test_truncated_report_matches_the_library_routes(tmp_path):
    """The truncated report's difference_formula is torsion_difference on the
    cone's Tors, and its cross_route_residual compares that with the two
    direct routes, bit for bit."""
    params = cli._params(parse_config(SHEARED_T2))
    path = _write_config(tmp_path, SHEARED_T2)
    for eps in (0.1, 0.25, 0.5):
        out = tmp_path / f"trunc{eps}.json"
        assert cli.main(["truncated", "--config", path, "--epsilon", repr(eps), "--out", str(out)]) == 0
        report = json.loads(out.read_text())["result"]
        cs = parse_config(SHEARED_T2).cross_section
        value = T.log_torsion_truncated(cs, eps)
        cone = T.log_torsion_cone(cs, params)
        diff = T.torsion_difference(cs, eps, cone.tors)
        assert report["cross_route_residual"] == abs(diff - (value - cone.log_t))
        assert report["difference_formula"] == diff


@pytest.mark.parametrize("what, builds", [(None, 1), ("bessel", 0)])
def test_verify_builds_the_unit_t2_slices_once(monkeypatch, capsys, what, builds):
    """One verify run builds the unit-T^2 slice set at most once and shares
    it between the shifted-zeta0, shifted-zeta-prime0 and tors-duality
    checks: one slice and one MellinSplit, degree 0, which also gives
    degree 1."""
    spectra, splits = [], []
    spectrum, init = T.coclosed_spectrum, zeta.MellinSplit.__init__

    def counting_spectrum(*args, **kwargs):
        spectra.append(args)
        return spectrum(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        splits.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(T, "coclosed_spectrum", counting_spectrum)
    monkeypatch.setattr(zeta.MellinSplit, "__init__", counting_init)
    assert cli.main(["verify"] + ([what] if what else [])) == 0
    assert (len(spectra), len(splits)) == (builds, builds)
    if what is None:
        out = capsys.readouterr().out
        assert [line.split()[:2] for line in out.splitlines()] == [
            ["pass", name] for _, name, _, _ in cli._CHECKS
        ]


@pytest.mark.parametrize(
    "what, solves, oracles",
    [
        (None, 1, 2),
        ("detratio", 1, 0),
        ("det-ratio-oracle-grid", 1, 0),
        ("harmonic-det", 1, 0),
        ("zeta", 0, 2),
        ("bessel", 0, 0),
    ],
)
def test_verify_shares_one_gy_solve_and_one_first_order_oracle_per_sign(
    monkeypatch, capsys, what, solves, oracles
):
    """One verify run advances the det-ratio grid and the harmonic entries
    in one Gelfand-Yaglom ODE solve, and shifted-zeta0 and
    shifted-zeta-prime0 share one first-order oracle per sign."""
    calls = {"ode": 0, "oracle": 0}
    ode, init = T._integrate_model_ode, firstorder.FirstOrderZeta.__init__

    def counting_ode(*args, **kwargs):
        calls["ode"] += 1
        return ode(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["oracle"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(T, "_integrate_model_ode", counting_ode)
    monkeypatch.setattr(firstorder.FirstOrderZeta, "__init__", counting_init)
    assert cli.main(["verify"] + ([what] if what else [])) == 0
    assert (calls["ode"], calls["oracle"]) == (solves, oracles)


def _count_verify_calls(monkeypatch, capsys) -> tuple[int, int]:
    """(scipy iv/kv/ive/kve calls, first-order B quadratures) of one verify run."""
    from scipy import special

    calls = {"bessel": 0, "b1": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    with monkeypatch.context() as m:
        for name in ("iv", "kv", "ive", "kve"):
            m.setattr(special, name, counting("bessel", getattr(special, name)))
        m.setattr(firstorder, "quad_gk21", counting("b1", firstorder.quad_gk21))
        assert cli.main(["verify"]) == 0
    capsys.readouterr()
    return calls["bessel"], calls["b1"]


def test_verify_makes_a_fixed_number_of_bessel_calls_and_one_b1_quadrature(monkeypatch, capsys):
    """Every Bessel evaluation of verify is an array call, one per scipy
    function and order: 6 each for the Wronskian draws, the uniform-expansion
    references and the det-ratio grid, and 6 for each of the 6
    regularization points.  The count does not grow with the det-ratio grid.
    Both signs of the first-order oracle share one B quadrature."""
    assert _count_verify_calls(monkeypatch, capsys) == (54, 1)
    grid = cli._det_grid_entries()
    monkeypatch.setattr(cli, "_det_grid_entries", lambda: grid + [(spec, 1.5 * z) for spec, z in grid])
    assert _count_verify_calls(monkeypatch, capsys) == (54, 1)


@pytest.mark.parametrize("doc", [UNIT_T2, UNIT_T4], ids=["t2", "t4"])
def test_torsion_provenance_records_the_subtraction_order(tmp_path, doc):
    out = tmp_path / "report.json"
    assert cli.main(["torsion", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
    n = doc["cross_section"]["dim_n"]
    assert json.loads(out.read_text())["provenance"]["order"] == zeta.default_order(n)


DOCS = Path(__file__).resolve().parent.parent / "docs"


def test_config_schema_lists_the_parsed_fields():
    schema = json.loads((DOCS / "config.schema.json").read_text())
    assert set(schema["properties"]) == FIELDS
    assert set(schema["properties"]["cross_section"]["properties"]) == CROSS_SECTION_FIELDS


def test_example_config_runs(capsys):
    assert cli.main(["torsion", "--config", str(DOCS / "example-config.json")]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["log_torsion"]
