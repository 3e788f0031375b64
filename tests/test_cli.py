import json
import math
import os
import subprocess
import sys

import pytest

import diracosc
from diracosc import oracle
from diracosc.cli import _nice_ticks, main, svg_linechart
from diracosc.model import FieldConfiguration, StateIndex, SymmetryLimit
from diracosc.oracle import RadialGrid
from diracosc.spectrum import SweepSpec, default_window, sweep

BARE_SPIN = ["--symmetry", "spin", "--M", "1", "--a", "1", "--b", "0", "--B", "0", "--flux", "0"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_bare_ground_state(capsys):
    code, out, _ = run(capsys, ["solve", *BARE_SPIN, "--n", "0", "--m", "0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "symmetry,n,m,M,a,b,B,flux,e,c,E,residual,p_tilde,alpha,norm_const"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "spin"
    assert abs(float(cells[10]) - 2.50975533) < 1e-6
    assert float(cells[11]) < 1e-10


def test_solve_verify_columns(capsys):
    for sym, B, flux in (("pseudospin", "2", "1"), ("spin", "0.5", "0.6")):
        code, out, _ = run(
            capsys,
            ["solve", "--symmetry", sym, "--M", "1", "--a", "1", "--b", "1",
             "--B", B, "--flux", flux, "--n", "0", "--m", "0", "--verify"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].endswith(",oracle_E,oracle_diff")
        for line in lines[1:]:
            assert float(line.split(",")[-1]) <= 1e-6, (sym, line)


def test_solve_verify_names_an_unconfirmed_root(capsys, monkeypatch):
    # on a coarse oracle grid the b = 0 flux state's oracle root is 4.4e-8
    # away: its oracle columns stay empty, and stderr says why
    monkeypatch.setattr(oracle, "GRID", RadialGrid(12.0, 200))
    code, out, err = run(
        capsys,
        ["solve", "--symmetry", "pseudospin", "--M", "1", "--a", "1", "--b", "0",
         "--B", "0.5", "--flux", "1", "--n", "0", "--m", "0", "--verify"],
    )
    assert code == 0
    [row] = out.strip().splitlines()[1:]
    assert row.endswith(",,")
    E = row.split(",")[10]
    assert err == f"no sign change of G within 1e-8 of E = {E}\n"


def test_solve_no_state_exit_1(capsys):
    # pseudospin with a = 1, B = 0 is not confining below the mass shell
    code, out, _ = run(
        capsys,
        ["solve", "--symmetry", "pseudospin", "--M", "1", "--a", "1", "--b", "0",
         "--B", "0", "--flux", "0", "--n", "0", "--m", "0", "--emin", "-5", "--emax", "0.9"],
    )
    assert code == 1
    assert len(out.strip().splitlines()) == 1  # header only


def test_solve_invalid_parameter_exit_2(capsys):
    code, _, err = run(capsys, ["solve", *BARE_SPIN[:4], "--a", "-1", *BARE_SPIN[6:], "--n", "0", "--m", "0"])
    assert code == 2
    assert "--a" in err


@pytest.mark.parametrize("flag, value", [("--a", "inf"), ("--M", "inf"), ("--flux", "nan"), ("--c", "-inf")])
def test_solve_non_finite_parameter_exit_2(capsys, flag, value):
    # "=" keeps argparse from reading "-inf" as a flag
    argv = ["solve", *BARE_SPIN, "--n", "0", "--m", "1", f"{flag}={value}"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"invalid {flag}: must be finite" in err


@pytest.mark.parametrize("argv", [
    ["solve", *BARE_SPIN, "--n", "0", "--m", "0", "--emax", "1e160"],
    ["solve", *BARE_SPIN, "--n", "0", "--m", "0", "--M", "1e77"],
    ["solve", *BARE_SPIN, "--n", "0", "--m", "0", "--B", "1e100"],
    ["solve", *BARE_SPIN, "--n", "0", "--m", "0", "--a", "1e300"],
    ["solve", *BARE_SPIN, "--n", "0", "--m", "0", "--B", "1e200"],
    ["solve", *BARE_SPIN, "--n", "0", "--m", "0", "--flux", "1e300"],
    ["solve", *BARE_SPIN, "--n", "0", "--m", "0", "--B", "0.5", "--c", "1e-200"],
    ["sweep", *BARE_SPIN, "--M", "1e77", "--vary", "B", "--from", "0", "--to", "1",
     "--steps", "3", "--states", "0:0", "--out", "unused.csv"],
    ["wavefunction", *BARE_SPIN, "--M", "1e77", "--n", "0", "--m", "0", "--rmax", "5",
     "--samples", "10", "--out", "unused.csv"],
    ["nu-trace", *BARE_SPIN, "--m", "0", "--E", "1e160"],
], ids=lambda argv: " ".join([argv[0], *argv[-2:]]))
def test_finite_values_past_float_range_exit_2(capsys, tmp_path, monkeypatch, argv):
    # finite inputs whose arithmetic overflows or divides by zero are invalid
    # parameters (exit 2), not "no state" (exit 1) and not a traceback
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("invalid parameters: ")
    assert not (tmp_path / "unused.csv").exists()


def test_solve_missing_flag_exit_2(capsys):
    code, _, err = run(capsys, ["solve", "--symmetry", "spin", "--a", "1", "--b", "0",
                                "--B", "0", "--flux", "0", "--n", "0", "--m", "0"])
    assert code == 2
    assert "--M" in err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--bogus", "1"])
    assert exc.value.code == 2


def test_config_file_precedence(tmp_path, capsys):
    cfg = {"symmetry": "spin", "M": 1.0, "a": 1.0, "b": 0.0, "B": 0.0, "flux": 0.0,
           "n": 0, "m": 0, "emax": 10.0}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, ["solve", "--config", str(path)])
    assert code == 0
    E_file = float(out.strip().splitlines()[1].split(",")[10])

    # flag overrides the file: n = 1 instead of 0
    code, out, _ = run(capsys, ["solve", "--config", str(path), "--n", "1"])
    assert code == 0
    E_flag = float(out.strip().splitlines()[1].split(",")[10])
    assert E_flag > E_file + 1.0


@pytest.mark.parametrize("command, key, value", [
    ("solve", "M", "abc"),
    ("nu-trace", "m", "x"),
    ("solve", "n", 1.7),
    ("solve", "e", True),
])
def test_config_value_passes_its_flags_conversion(tmp_path, capsys, command, key, value):
    # as if typed after --key: float("abc"), int("x"), int("1.7") and
    # float("True") fail, so each is an invalid parameter, not a solve
    cfg = {"symmetry": "spin", "M": 1.0, "a": 1.0, "b": 0.0, "B": 0.0, "flux": 0.0,
           "n": 0, "m": 0, key: value}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    extra = ["--E", "2"] if command == "nu-trace" else []
    code, out, err = run(capsys, [command, "--config", str(path), *extra])
    assert code == 2
    assert err.startswith(f"invalid --{key}:")


def test_sweep_csv_shape(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, [
        "sweep", "--symmetry", "pseudospin", "--M", "1", "--a", "1", "--b", "1",
        "--flux", "1", "--vary", "B", "--from", "0.5", "--to", "5", "--steps", "10",
        "--states", "0:0,1:0,0:1", "--out", str(out_csv),
    ])
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 11  # header + 10 rows
    assert lines[0] == "B,E_0_0,E_1_0,E_0_1"
    assert all(len(ln.split(",")) == 4 for ln in lines)


def test_sweep_malformed_states_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, [
        "sweep", "--symmetry", "spin", "--M", "1", "--a", "1", "--b", "0", "--flux", "0",
        "--vary", "B", "--from", "0", "--to", "1", "--steps", "3",
        "--states", "0:0,nonsense", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "--states" in err


@pytest.mark.parametrize("flag, value", [("--a", "inf"), ("--to", "inf"), ("--from", "nan")])
def test_sweep_non_finite_parameter_exit_2(tmp_path, capsys, flag, value):
    argv = ["sweep", "--symmetry", "spin", "--M", "1", "--a", "1", "--b", "0", "--flux", "0",
            "--vary", "B", "--from", "0", "--to", "1", "--steps", "3",
            "--states", "0:0", "--out", str(tmp_path / "x.csv"), flag, value]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "must be finite" in err
    assert not (tmp_path / "x.csv").exists()


def test_sweep_svg_deterministic_roundtrip(tmp_path, capsys):
    args = [
        "sweep", "--symmetry", "pseudospin", "--M", "1", "--a", "1", "--b", "1",
        "--flux", "1", "--vary", "B", "--from", "0.5", "--to", "3", "--steps", "6",
        "--states", "0:0,1:0",
    ]
    csv1, svg1 = tmp_path / "a.csv", tmp_path / "a.svg"
    csv2, svg2 = tmp_path / "b.csv", tmp_path / "b.svg"
    assert run(capsys, args + ["--out", str(csv1), "--plot", str(svg1)])[0] == 0
    assert run(capsys, args + ["--out", str(csv2), "--plot", str(svg2)])[0] == 0
    assert csv1.read_bytes() == csv2.read_bytes()
    assert svg1.read_bytes() == svg2.read_bytes()

    # the SVG is the chart of the library's sweep table
    cfg = FieldConfiguration(M=1, a=1, b=1, B=0.5, phi_AB=1)
    table = sweep(cfg, SymmetryLimit.PSEUDOSPIN, [StateIndex(0, 0), StateIndex(1, 0)],
                  SweepSpec("B", 0.5, 3.0, 6), default_window(cfg))
    columns = [table.column(0), table.column(1)]
    assert svg_linechart("B", table.values, columns, ["n=0, m=0", "n=1, m=0"]) == svg1.read_text()
    assert "<svg" in svg1.read_text() and "polyline" in svg1.read_text()
    assert "n=0, m=0" in svg1.read_text()


def test_sweep_plot_over_a_range_below_rounding(tmp_path):
    # B spans one ulp of 1: the tick step is lost to rounding in t += step,
    # so only a bounded tick count lets the plot finish
    argv = ["sweep", "--symmetry", "pseudospin", "--M", "1", "--a", "1", "--b", "1",
            "--flux", "1", "--vary", "B", "--from", "1", "--to", "1.0000000000000002",
            "--steps", "2", "--states", "0:0", "--out", "s.csv", "--plot", "s.svg"]
    src = os.path.dirname(os.path.dirname(diracosc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-m", "diracosc.cli", *argv], cwd=tmp_path, env=env,
                   timeout=10, check=True, capture_output=True)
    assert (tmp_path / "s.svg").read_text().endswith("</svg>\n")


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0000000000000002), (3739099.323658337, 3739099.323658338)])
def test_nice_ticks_are_distinct_and_inside_the_range(lo, hi):
    # spans below the rounding of their ends: t += step stalls, and the
    # first multiple of the step can fall below lo
    ticks = _nice_ticks(lo, hi)
    assert len(set(ticks)) == len(ticks) <= 6
    assert all(lo <= t <= hi for t in ticks)
    assert ticks == sorted(ticks)


def test_nice_ticks_on_a_plain_range():
    assert _nice_ticks(0.5, 5.0) == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert _nice_ticks(-0.3, 0.3) == [-0.2, 0.0, 0.2]
    assert _nice_ticks(2.0, 2.0) == [2.0]


def test_svg_breaks_polyline_on_empty_cells():
    values = [0.0, 1.0, 2.0, 3.0]
    columns = [[1.0, None, 2.0, 2.5]]
    svg = svg_linechart("B", values, columns, ["n=0, m=0"])
    # the isolated leading point becomes a marker; the two points after the
    # gap form the only polyline
    assert svg.count("<circle") == 1
    assert svg.count("<polyline") == 1
    assert "NaN" not in svg


def test_wavefunction_csv(tmp_path, capsys):
    out = tmp_path / "wf.csv"
    code, _, _ = run(capsys, [
        "wavefunction", *BARE_SPIN, "--n", "0", "--m", "0",
        "--rmax", "5", "--samples", "1000", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("#") and "normalization" in lines[0]
    assert lines[2] == "r,g,g_squared"
    rows = [ln.split(",") for ln in lines[3:]]
    assert len(rows) == 1000
    g = [float(r[1]) for r in rows]
    assert all(v >= 0.0 for v in g)  # n = 0 with positive phase convention

    # trapezoid normalization check on the emitted samples
    r = [float(row[0]) for row in rows]
    g2 = [float(row[2]) for row in rows]
    dr = r[1] - r[0]
    total = sum(0.5 * (a + b) * dr for a, b in zip(g2, g2[1:]))
    assert abs(total - 1.0) < 1e-3


def test_wavefunction_nodes_in_csv(tmp_path, capsys):
    out = tmp_path / "wf2.csv"
    code, _, _ = run(capsys, [
        "wavefunction", *BARE_SPIN, "--n", "2", "--m", "0",
        "--rmax", "5", "--samples", "1200", "--out", str(out),
    ])
    assert code == 0
    rows = out.read_text().strip().splitlines()[3:]
    g = [float(ln.split(",")[1]) for ln in rows]
    cut = 1e-12 * max(abs(v) for v in g)
    signs = [1 if v > 0 else -1 for v in g if abs(v) > cut]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert changes == 2


def test_wavefunction_no_state_exit_1(tmp_path, capsys):
    code, _, _ = run(capsys, [
        "wavefunction", *BARE_SPIN, "--n", "0", "--m", "0",
        "--emin", "1.05", "--emax", "1.5",
        "--rmax", "5", "--samples", "100", "--out", str(tmp_path / "none.csv"),
    ])
    assert code == 1


@pytest.mark.parametrize("rmax", ["inf", "nan", "0"])
def test_wavefunction_invalid_rmax_exit_2(tmp_path, capsys, rmax):
    code, _, err = run(capsys, [
        "wavefunction", *BARE_SPIN, "--n", "0", "--m", "0",
        "--rmax", rmax, "--samples", "100", "--out", str(tmp_path / "wf.csv"),
    ])
    assert code == 2
    assert "invalid --rmax" in err
    assert not (tmp_path / "wf.csv").exists()


def test_nu_trace_non_finite_energy_exit_2(capsys):
    code, out, err = run(capsys, ["nu-trace", *BARE_SPIN, "--m", "0", "--E", "inf"])
    assert code == 2
    assert out == ""
    assert "invalid --E: must be finite" in err


def test_nu_trace_output(capsys):
    code, out, _ = run(capsys, [
        "nu-trace", "--symmetry", "pseudospin", "--M", "1", "--a", "1", "--b", "1",
        "--B", "2", "--flux", str(math.pi), "--m", "1", "--E", "2",
    ])
    assert code == 0
    assert "pi(s) = 2 - 1.73205080757 s" in out
    assert "tau(s) = 5 - 3.46410161514 s" in out
    assert "lambda = -2.83012701892" in out
    assert out.count("[k") == 4  # all four candidates listed
    assert "5.66025403784" in out  # F_0(2) = 5 sqrt(3) - 3


def test_nu_trace_marks_eigenstate(capsys):
    # probe exactly at the n = 1 level of the bare spin oscillator
    from diracosc.model import FieldConfiguration, StateIndex, SymmetryLimit
    from diracosc.spectrum import SearchWindow, find_states

    cfg = FieldConfiguration(M=1, a=1, b=0, B=0, phi_AB=0)
    E1 = find_states(cfg, SymmetryLimit.SPIN, StateIndex(1, 0), SearchWindow(1.0001, 10.0))[0].E
    code, out, _ = run(capsys, [
        "nu-trace", *BARE_SPIN, "--m", "0", "--E", f"{E1:.15g}",
    ])
    assert code == 0
    marked = [ln for ln in out.splitlines() if "<-- eigenstate" in ln]
    assert len(marked) == 1
    assert marked[0].strip().startswith("1")


def test_nu_trace_inadmissible_exit_2(capsys):
    code, _, err = run(capsys, [
        "nu-trace", "--symmetry", "pseudospin", "--M", "1", "--a", "1", "--b", "1",
        "--B", "0", "--flux", "0", "--m", "0", "--E", "0.2",
    ])
    assert code == 2
    assert "p2" in err
    # E = M is the pseudospin mass shell
    code, _, err = run(capsys, [
        "nu-trace", "--symmetry", "pseudospin", "--M", "1", "--a", "1", "--b", "1",
        "--B", "0", "--flux", "0", "--m", "0", "--E", "1",
    ])
    assert code == 2
    assert "mass shell" in err
