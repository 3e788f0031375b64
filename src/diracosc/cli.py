"""Command-line surface: solve single states, sweep external fields, emit
wavefunctions, and trace the polynomial-method derivation.

Output conventions: CSV with a header row, numbers serialized with 12
significant digits, '.' decimal separator regardless of locale; SVG output
is a self-contained line chart (inline styling, no external resources).
Exit codes: 0 success with results, 1 no state found, 2 invalid parameters.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from . import model, nu, oracle, spectrum
from .model import FieldConfiguration, StateIndex, SymmetryLimit
from .spectrum import SearchWindow
from .wavefunc import radial_profile

_FIELD_KEYS = ("M", "a", "b", "B", "flux", "e", "c")

_SOLVE_COLUMNS = (
    "symmetry,n,m,M,a,b,B,flux,e,c,E,residual,p_tilde,alpha,norm_const"
)


class CliError(Exception):
    """Invalid parameters; message names the offending flag."""


def fmt(x: float) -> str:
    return f"{x:.12g}"


def _merged(args: argparse.Namespace, key: str, kind, default=None, required: bool = False):
    """Precedence: command-line flag > config file > default.  A config value
    passes the flag's own conversion kind, as if typed after --key."""
    value = getattr(args, key, None)
    if value is None and getattr(args, "_config", None) is not None:
        value = args._config.get(key)
        try:
            value = None if value is None else kind(str(value))
        except ValueError:
            raise CliError(f"invalid --{key}: {kind.__name__} expected, got {value!r}") from None
    if value is None:
        value = default
    if value is None and required:
        raise CliError(f"missing required flag --{key}")
    return value


def _load_config(args: argparse.Namespace) -> None:
    path = getattr(args, "config", None)
    if path is None:
        args._config = None
        return
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"invalid --config: {exc}") from None
    if not isinstance(cfg, dict):
        raise CliError("invalid --config: top-level JSON object expected")
    args._config = cfg


def _field_configuration(args: argparse.Namespace) -> FieldConfiguration:
    values = {}
    for key in _FIELD_KEYS:
        required = key in ("M", "a", "b", "B", "flux")
        default = 1.0 if key in ("e", "c") else None
        values[key] = _merged(args, key, float, default=default, required=required)
    try:
        return FieldConfiguration(
            M=values["M"],
            a=values["a"],
            b=values["b"],
            B=values["B"],
            phi_AB=values["flux"],
            e=values["e"],
            c=values["c"],
        )
    except ValueError as exc:
        # name the flag, not the dataclass field
        msg = str(exc)
        for key in _FIELD_KEYS:
            field = "phi_AB" if key == "flux" else key
            if msg.startswith(f"{field} "):
                raise CliError(f"invalid --{key}: {msg[len(field) + 1:]}") from None
        raise CliError(msg) from None


def _symmetry(args: argparse.Namespace) -> SymmetryLimit:
    raw = _merged(args, "symmetry", str, required=True)
    try:
        return SymmetryLimit(raw)
    except ValueError:
        raise CliError(
            f"invalid --symmetry: must be 'spin' or 'pseudospin', got {raw!r}"
        ) from None


def _window(args: argparse.Namespace, cfg: FieldConfiguration) -> SearchWindow:
    default = spectrum.default_window(cfg)
    e_min = _merged(args, "emin", float, default=default.e_min)
    e_max = _merged(args, "emax", float, default=default.e_max)
    try:
        return SearchWindow(e_min, e_max)
    except ValueError as exc:
        raise CliError(f"invalid window flags: {exc}") from None


def _state_index(args: argparse.Namespace) -> StateIndex:
    n = _merged(args, "n", int, required=True)
    m = _merged(args, "m", int, required=True)
    try:
        return StateIndex(n, m)
    except ValueError as exc:
        raise CliError(f"invalid --n: {exc}") from None


def _parse_states(spec: str) -> list[StateIndex]:
    states = []
    for chunk in spec.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 2:
            raise CliError(f"invalid --states: expected 'n:m' pairs, got {chunk!r}")
        try:
            states.append(StateIndex(int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise CliError(f"invalid --states: {exc}") from None
    return states


# ---------------------------------------------------------------------------
# solve

def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _field_configuration(args)
    sym = _symmetry(args)
    idx = _state_index(args)
    window = _window(args, cfg)
    states = spectrum.find_states(cfg, sym, idx, window)

    header = _SOLVE_COLUMNS + (",oracle_E,oracle_diff" if args.verify else "")
    print(header)
    # one report per state, in the same order; none when the oracle fails
    reports: list[oracle.OracleComparison] = []
    if args.verify and states:
        try:
            reports = oracle.compare(cfg, sym, idx, None, window)
        except (oracle.GridTooCoarse, ValueError) as exc:
            print(f"oracle verification failed: {exc}", file=sys.stderr)
        for rep in reports:
            if rep.oracle_E is None:
                print(f"no sign change of G within 1e-8 of E = {fmt(rep.analytic_E)}", file=sys.stderr)
    for s, rep in itertools.zip_longest(states, reports):
        row = [
            sym.value,
            str(idx.n),
            str(idx.m),
            fmt(cfg.M),
            fmt(cfg.a),
            fmt(cfg.b),
            fmt(cfg.B),
            fmt(cfg.phi_AB),
            fmt(cfg.e),
            fmt(cfg.c),
            fmt(s.E),
            fmt(s.residual),
            fmt(s.p_tilde),
            fmt(s.alpha),
            fmt(s.norm_const),
        ]
        if args.verify:
            confirmed = rep is not None and rep.oracle_E is not None
            row.append(fmt(rep.oracle_E) if confirmed else "")
            row.append(fmt(rep.abs_diff) if confirmed else "")
        print(",".join(row))
    return 0 if states else 1


# ---------------------------------------------------------------------------
# sweep

def cmd_sweep(args: argparse.Namespace) -> int:
    vary_key = args.vary  # the varied parameter needs no base value
    if getattr(args, vary_key, None) is None:
        setattr(args, vary_key, args.start)
    cfg = _field_configuration(args)
    sym = _symmetry(args)
    window = _window(args, cfg)
    states = _parse_states(args.states)
    parameter = "B" if args.vary == "B" else "phi_AB"
    try:
        vary = spectrum.SweepSpec(parameter, args.start, args.to, args.steps)
    except ValueError as exc:
        raise CliError(f"invalid --steps/--from/--to: {exc}") from None

    table = spectrum.sweep(cfg, sym, states, vary, window)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_sweep_csv(args.vary, table))
    if args.plot:
        columns = [table.column(j) for j in range(len(states))]
        labels = [f"n={s.n}, m={s.m}" for s in states]
        svg = svg_linechart(args.vary, table.values, columns, labels)
        with open(args.plot, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(svg)
    return 0


def _sweep_csv(param_label: str, table: spectrum.SweepTable) -> str:
    header = [param_label] + [f"E_{s.n}_{s.m}" for s in table.states]
    lines = [",".join(header)]
    for value, row in zip(table.values, table.energies):
        cells = [fmt(value)] + ["" if e is None else fmt(e) for e in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG emission (self-contained, deterministic)

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


def _nice_ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    if span <= 0.0:
        return [lo]
    raw = span / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    slack = 1e-9 * span
    ticks: list[float] = []
    t = math.ceil(lo / step) * step
    # step >= span / 5 fits six ticks; the fixed count also ends the loop on
    # a span so narrow that rounding absorbs t += step, or puts t below lo
    for _ in range(6):
        tick = 0.0 if abs(t) < 1e-12 * span else t
        if lo - slack <= tick <= hi + slack and tick not in ticks:
            ticks.append(tick)
        t += step
    return ticks


def svg_linechart(
    x_label: str,
    values: list[float],
    columns: list[list[float | None]],
    labels: list[str],
) -> str:
    """One polyline per column; empty cells break the line."""
    width, height = 640, 420
    ml, mr, mt, mb = 60, 150, 20, 50
    pw, ph = width - ml - mr, height - mt - mb
    x_lo, x_hi = min(values), max(values)
    present = [e for col in columns for e in col if e is not None]
    y_lo, y_hi = (min(present), max(present)) if present else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="black" stroke-width="1"/>',
    ]
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        out.append(
            f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" y2="{mt + ph + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{mt + ph + 18}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{t:g}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        out.append(f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="black"/>')
        out.append(
            f'<text x="{ml - 8}" y="{y + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{t:g}</text>'
        )
    out.append(
        f'<text x="{ml + pw / 2:.2f}" y="{height - 12}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">{x_label}</text>'
    )
    out.append(
        f'<text x="16" y="{mt + ph / 2:.2f}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {mt + ph / 2:.2f})">E</text>'
    )
    for j, col in enumerate(columns):
        color = _PALETTE[j % len(_PALETTE)]
        segment: list[str] = []
        segments: list[list[str]] = []
        for x, e in zip(values, col):
            if e is None:
                if segment:
                    segments.append(segment)
                segment = []
            else:
                segment.append(f"{px(x):.2f},{py(e):.2f}")
        if segment:
            segments.append(segment)
        for seg in segments:
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                out.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
            else:
                out.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
        ly = mt + 16 + 18 * j
        lx = ml + pw + 12
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="11">'
            f"{labels[j]}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# wavefunction

def cmd_wavefunction(args: argparse.Namespace) -> int:
    cfg = _field_configuration(args)
    sym = _symmetry(args)
    idx = _state_index(args)
    window = _window(args, cfg)
    if not 0.0 < args.rmax < math.inf:
        raise CliError(f"invalid --rmax: must be finite and > 0, got {args.rmax}")
    if args.samples < 2:
        raise CliError(f"invalid --samples: must be >= 2, got {args.samples}")
    states = spectrum.find_states(cfg, sym, idx, window)
    if not states:
        print("no bound state in the search window", file=sys.stderr)
        return 1
    prof = radial_profile(states[0], r_max=args.rmax, samples=args.samples)
    lines = [
        "# radial normalization: integral g^2 dr = 1 "
        "(angular factor e^(i m phi)/sqrt(2 pi))",
        f"# symmetry={sym.value} n={idx.n} m={idx.m} E={fmt(states[0].E)}",
        "r,g,g_squared",
    ]
    for r, g in zip(prof.r, prof.g):
        lines.append(f"{fmt(r)},{fmt(g)},{fmt(g * g)}")
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# nu-trace

def cmd_nu_trace(args: argparse.Namespace) -> int:
    cfg = _field_configuration(args)
    sym = _symmetry(args)
    m = _merged(args, "m", int, required=True)
    E = args.E
    if not math.isfinite(E):
        raise CliError(f"invalid --E: must be finite, got {E}")
    coeffs = model.reduced_coefficients(cfg, sym, m, E)
    verdict = model.admissible(coeffs)
    if verdict is not model.Admissibility.ADMISSIBLE:
        detail = {
            model.Admissibility.EXCLUDED_ENERGY: f"{sym.value} mass shell, mu = 0",
            model.Admissibility.NOT_CONFINING: f"p2 = {fmt(coeffs.p2)} <= 0",
            model.Admissibility.SUPERCRITICAL_INVERSE_SQUARE: (
                f"delta + 1/4 = {fmt(coeffs.delta + 0.25)} < 0"
            ),
        }[verdict]
        print(f"inadmissible probe energy E = {fmt(E)}: {detail}", file=sys.stderr)
        return 2

    problem = nu.oscillator_problem(coeffs.p2, coeffs.q, coeffs.delta)
    candidates = nu.pi_candidates(problem)
    selected = nu.select_solution(candidates)

    def poly(c: tuple[float, ...]) -> str:
        terms = []
        for p, coef in enumerate(c):
            if coef == 0.0 and any(x != 0.0 for x in c[p + 1 :] or c[:p]):
                continue
            body = fmt(abs(coef)) if p == 0 else (
                f"{fmt(abs(coef))} s" if p == 1 else f"{fmt(abs(coef))} s^{p}"
            )
            sign = "-" if coef < 0.0 else "+"
            terms.append((sign, body))
        if not terms:
            return "0"
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out

    print(f"instance at E = {fmt(E)} ({sym.value}, m = {m}):")
    print(f"  p2 = {fmt(coeffs.p2)}  q = {fmt(coeffs.q)}  delta = {fmt(coeffs.delta)}")
    print(f"  sigma(s)       = {poly(problem.sigma)}")
    print(f"  tau_tilde(s)   = {poly(problem.tau_tilde)}")
    print(f"  sigma_tilde(s) = {poly(problem.sigma_tilde)}")
    print("candidates (k, pi):")
    for c in candidates:
        mark = "  <-- selected" if c.branch_id == selected.branch_id and c.pi == selected.pi else ""
        print(f"  [{c.branch_id}] k = {fmt(c.k)}, pi(s) = {poly(c.pi)}, tau' = {fmt(c.tau_slope)}{mark}")
    print(f"selected branch {selected.branch_id}:")
    print(f"  tau(s) = {poly(selected.tau)}")
    print(f"  lambda = {fmt(selected.lam)}")
    print("quantization table (lambda_n = -n tau' - n(n-1)/2 sigma''):")
    print("  n   lambda_n        lambda - lambda_n   F_n(E)")
    idx_scale = abs(selected.lam) + 1.0
    for n in range(6):
        res = nu.eigen_condition(selected, problem, n)
        f_n = spectrum.energy_condition(cfg, sym, StateIndex(n, m), E)
        mark = "   <-- eigenstate" if abs(res) <= 1e-9 * idx_scale else ""
        print(f"  {n}   {fmt(selected.lam - res):<15} {fmt(res):<19} {fmt(f_n)}{mark}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_field_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--symmetry", choices=["spin", "pseudospin"])
    p.add_argument("--M", type=float, help="rest mass")
    p.add_argument("--a", type=float, help="quadratic potential strength")
    p.add_argument("--b", type=float, help="inverse-square potential strength")
    p.add_argument("--B", type=float, help="magnetic field strength")
    p.add_argument("--flux", type=float, help="Aharonov-Bohm flux")
    p.add_argument("--e", type=float, help="charge magnitude (default 1)")
    p.add_argument("--c", type=float, help="speed-of-light parameter (default 1)")
    p.add_argument("--config", help="JSON file with the same keys as the flags")


def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--emin", type=float, help="window lower edge (default -(M+20))")
    p.add_argument("--emax", type=float, help="window upper edge (default M+20)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracosc",
        description="Bound states of a planar Dirac particle in an anharmonic "
        "oscillator under magnetic and AB flux fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one (n, m) state; CSV on stdout")
    _add_field_flags(p)
    _add_window_flags(p)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--verify", action="store_true", help="append finite-volume oracle columns")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="sweep B or flux over a grid; CSV file + optional SVG")
    _add_field_flags(p)
    _add_window_flags(p)
    p.add_argument("--vary", choices=["B", "flux"], required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True, help="number of grid points")
    p.add_argument("--states", required=True, help="comma list of n:m pairs, e.g. '0:0,0:1'")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--plot", help="optional output SVG path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("wavefunction", help="emit the radial profile of one state as CSV")
    _add_field_flags(p)
    _add_window_flags(p)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--rmax", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("nu-trace", help="didactic trace of the derivation at a probe energy")
    _add_field_flags(p)
    p.add_argument("--m", type=int)
    p.add_argument("--E", type=float, required=True, help="probe energy")
    p.set_defaults(func=cmd_nu_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _load_config(args)
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # finite inputs whose arithmetic leaves float range
        reason = exc.args[-1] if exc.args else type(exc).__name__
        print(f"invalid parameters: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
