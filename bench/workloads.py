"""The benchmark's workloads: their inputs, one op each, and its check.

A workload builds one fixed list of requests from its seed, reference
answers included, before any op runs; every pass runs each of them once, in
an order drawn from the seed and the pass number.  So a run at a given seed
measures the same inputs however fast the program is.  For each request the
runner times ``execute`` (calls into ``diracosc`` only) and then, outside the
timed region, compares the result with the independent reference in
``check``.  Every module attribute is looked up at call time, so a tracer
installed between ops sees every call.

- ``verify_matrix``: the 40-request regression matrix of the test suite,
  twice per pass; the seed only shuffles the request order.  Most time is spent in the
  finite-difference oracle.
- ``field_sweep``: the README magnetic sweep and both README flux sweeps
  through ``cli.main``, with a CSV and an SVG per command.  Root finding,
  branch tracking and the CLI's file handling; no oracle.
- ``random_spectra``: seeded random configurations, ``STRATA`` draws of
  every (symmetry, n 0..5, m -3..3).  m = 0 draws sit at
  critical coupling (b = 0, phi_AB = 0), odd n + m draws are weakly confined
  (small a and B, roots near the p2 = 0 edge).  Each root is checked through
  ``wavefunc``, ``special`` and ``nu``; the oracle is bypassed, since it is
  known to fail at critical coupling.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace

import reference

# a reported root is a reference root when within this distance
ROOT_TOL = 1e-8
# the oracle confirms a root when it lands within this distance (criterion 2)
ORACLE_TOL = 1e-6
# wavefunction checks, after the acceptance criteria: ODE defect, norm, and
# the NU quantization residual relative to 1 + |lambda|
ODE_TOL = 1e-6
NORM_TOL = 1e-9
NU_TOL = 1e-9

# copies of the matrix per pass: one copy takes about 15 s at the seed commit
# on a 2-vCPU Xeon, so a run would hold one or two passes by chance, and its
# tail latency would fall at one of two percentiles
MATRIX_REPEATS = 2
# regression matrix of tests/conftest.py
MATRIX_CONFIGS = {
    True: reference.Config(M=1.0, a=1.0, b=1.0, B=0.5, phi_AB=0.6),  # spin
    False: reference.Config(M=1.0, a=1.0, b=1.0, B=2.0, phi_AB=1.0),  # pseudospin
}


@dataclass
class Verdict:
    """Outcome of one checked op.  ``states`` counts the correct bound
    states it delivered; ``counters`` feed the per-layer metrics; ``output``
    is the program's answer, to compare repeated runs of one request."""

    failed: bool
    states: int
    reason: str = ""
    counters: dict[str, float] = field(default_factory=dict)
    output: str = ""


def _matches(E: float, refs) -> bool:
    return any(abs(E - r) <= ROOT_TOL * (1.0 + abs(E)) for r in refs)


def compare_roots(reported: list[float], expected: list[float]) -> tuple[list[float], list[float]]:
    """(missed, extra): expected roots not reported, reported roots not
    expected."""
    missed = [E for E in expected if not _matches(E, reported)]
    extra = [E for E in reported if not _matches(E, expected)]
    return missed, extra


def _root_counters(reported, missed, extra) -> dict[str, float]:
    return {
        "spectrum.roots_reported": len(reported),
        "spectrum.roots_missed": len(missed),
        "spectrum.roots_extra": len(extra),
    }


def default_window(M: float) -> tuple[float, float]:
    """The program's default search window, [-(M + 20), M + 20]."""
    return (-(M + 20.0), M + 20.0)


def _in_window(roots, lo: float, hi: float) -> list[reference.Root]:
    return [r for r in roots if lo <= r.E <= hi]


class _Api:
    """The ``diracosc`` modules, looked up per call."""

    def __init__(self) -> None:
        import diracosc.cli
        import diracosc.model
        import diracosc.nu
        import diracosc.oracle
        import diracosc.special
        import diracosc.spectrum
        import diracosc.wavefunc

        self.cli = diracosc.cli
        self.model = diracosc.model
        self.nu = diracosc.nu
        self.oracle = diracosc.oracle
        self.special = diracosc.special
        self.spectrum = diracosc.spectrum
        self.wavefunc = diracosc.wavefunc

    def config(self, cfg: reference.Config):
        return self.model.FieldConfiguration(
            M=cfg.M, a=cfg.a, b=cfg.b, B=cfg.B, phi_AB=cfg.phi_AB, e=cfg.e, c=cfg.c
        )

    def symmetry(self, spin: bool):
        return self.model.SymmetryLimit.SPIN if spin else self.model.SymmetryLimit.PSEUDOSPIN


@dataclass
class SolveRequest:
    """One (configuration, symmetry, n, m) on the default window, with its
    reference roots in that window."""

    cfg: reference.Config
    spin: bool
    n: int
    m: int
    refs: list[reference.Root] = field(default_factory=list)

    def with_reference(self) -> "SolveRequest":
        lo, hi = default_window(self.cfg.M)
        roots = reference.bound_states(self.cfg, self.spin, self.n, self.m)
        return dc_replace(self, refs=_in_window(roots, lo, hi))


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.api = _Api()
        self.requests = self._build_requests()

    def pass_requests(self, k: int) -> list:
        """Pass k: every request once, in an order drawn from the seed and k."""
        requests = list(self.requests)
        random.Random(f"{self.name}:{self.seed}:{k}").shuffle(requests)
        return requests

    def near_edge_share(self) -> float:
        """Share of requests with a reference root within
        ``reference.NEAR_EDGE`` of an admissibility edge."""
        hits = sum(any(r.near_edge for r in req.refs) for req in self.requests)
        return hits / len(self.requests)

    def close(self) -> None:
        pass

    def _build_requests(self) -> list:
        raise NotImplementedError

    def execute(self, req):
        raise NotImplementedError

    def check(self, req, result) -> Verdict:
        raise NotImplementedError


class VerifyMatrix(Workload):
    name = "verify_matrix"

    def _build_requests(self) -> list[SolveRequest]:
        matrix = [
            SolveRequest(cfg, spin, n, m).with_reference()
            for spin, cfg in MATRIX_CONFIGS.items()
            for n in range(4)
            for m in range(-2, 3)
        ]
        return matrix * MATRIX_REPEATS

    def execute(self, req: SolveRequest):
        api = self.api
        cfg = api.config(req.cfg)
        sym = api.symmetry(req.spin)
        idx = api.model.StateIndex(req.n, req.m)
        window = api.spectrum.default_window(cfg)
        states = api.spectrum.find_states(cfg, sym, idx, window)
        reports = api.oracle.compare(cfg, sym, idx, None, window)
        return [s.E for s in states], [(r.analytic_E, r.oracle_E) for r in reports]

    def check(self, req: SolveRequest, result) -> Verdict:
        reported, reports = result
        expected = [r.E for r in req.refs]
        missed, extra = compare_roots(reported, expected)
        counters = _root_counters(reported, missed, extra)
        confirmed = 0
        unconfirmed = 0
        max_diff = 0.0
        analytic = []
        for analytic_E, oracle_E in reports:
            if analytic_E is None:
                # no analytic root: the oracle must not find one either
                unconfirmed += oracle_E is not None
                continue
            analytic.append(analytic_E)
            if oracle_E is None:
                unconfirmed += 1
                continue
            diff = abs(analytic_E - oracle_E)
            max_diff = max(max_diff, diff)
            if diff > ORACLE_TOL:
                unconfirmed += 1
            elif _matches(analytic_E, expected):
                confirmed += 1
        counters["oracle.unconfirmed"] = unconfirmed
        counters["oracle.max_abs_diff"] = max_diff
        reasons = []
        if missed:
            reasons.append(f"missed roots {missed}")
        if extra:
            reasons.append(f"roots not in the reference {extra}")
        if sorted(analytic) != sorted(reported):
            reasons.append("oracle.compare saw other roots than find_states")
        if unconfirmed:
            reasons.append(f"{unconfirmed} roots not confirmed by the oracle within {ORACLE_TOL}")
        return Verdict(bool(reasons), confirmed, "; ".join(reasons), counters, repr(result))


# README sweeps; the magnetic one carries three states on a grid of 0.25 in
# B, the flux ones the README states on a grid of 10 in flux, so that the
# three commands cost about the same
SWEEPS = (
    ("pseudospin", dict(M=1.0, a=1.0, b=1.0, B=0.0, phi_AB=1.0), "B", 0.5, 5.0, 19,
     "0:0,1:0,0:1", None),
    ("pseudospin", dict(M=1.0, a=1.0, b=1.0, B=2.0, phi_AB=0.0), "flux", 0.0, 120.0, 13,
     "0:1,0:-1", (1.05, 21.0)),
    ("spin", dict(M=1.0, a=1.0, b=1.0, B=0.5, phi_AB=0.0), "flux", 0.0, 120.0, 13,
     "0:1,0:-1", (1.05, 21.0)),
)


@dataclass
class SweepRequest:
    argv: list[str]
    csv: str
    svg: str
    values: list[float]
    labels: list[str]
    # expected energy per (grid value, state), None for an empty cell
    expected: list[list[float | None]]
    near_edge: list[bool]


def _fmt(x: float) -> str:
    return repr(float(x))


def sweep_expectation(spin, base, vary, values, states, window):
    """The cells ``diracosc sweep`` must produce, from reference roots.

    The first grid value takes the lowest root in the base window; later
    values take the root nearest the previous one within a window of the
    same width centred on it; an empty cell keeps the previous root.
    """
    lo, hi = window
    width = hi - lo
    key = "B" if vary == "B" else "phi_AB"
    last: list[float | None] = [None] * len(states)
    rows, near = [], []
    for value in values:
        cfg = reference.Config(**{**base, key: value})
        row = []
        for j, (n, m) in enumerate(states):
            roots = reference.bound_states(cfg, spin, n, m)
            if last[j] is None:
                inside = _in_window(roots, lo, hi)
                best = inside[0] if inside else None
            else:
                inside = _in_window(roots, last[j] - 0.5 * width, last[j] + 0.5 * width)
                best = min(inside, key=lambda r: abs(r.E - last[j])) if inside else None
            near.append(bool(best is not None and best.near_edge))
            if best is not None:
                last[j] = best.E
            row.append(None if best is None else best.E)
        rows.append(row)
    return rows, near


class FieldSweep(Workload):
    name = "field_sweep"

    def __init__(self, seed: int, workdir: str) -> None:
        self.tmp = tempfile.mkdtemp(prefix="field_sweep-", dir=workdir)
        super().__init__(seed, workdir)

    def _build_requests(self) -> list[SweepRequest]:
        return [self._request(i, *spec) for i, spec in enumerate(SWEEPS)]

    def _request(self, i, symmetry, base, vary, start, stop, steps, states, window) -> SweepRequest:
        csv, svg = (os.path.join(self.tmp, f"sweep{i}.{ext}") for ext in ("csv", "svg"))
        argv = ["sweep", "--symmetry", symmetry]
        for flag, key in (("--M", "M"), ("--a", "a"), ("--b", "b"), ("--B", "B"), ("--flux", "phi_AB")):
            if not (vary == "B" and key == "B") and not (vary == "flux" and key == "phi_AB"):
                argv += [flag, _fmt(base[key])]
        argv += ["--vary", vary, "--from", _fmt(start), "--to", _fmt(stop), "--steps", str(steps),
                 "--states", states, "--out", csv, "--plot", svg]
        if window is None:
            window = default_window(base["M"])
        else:
            argv += ["--emin", _fmt(window[0]), "--emax", _fmt(window[1])]
        values = [start + (stop - start) * i / (steps - 1) for i in range(steps)]
        pairs = [tuple(int(x) for x in s.split(":")) for s in states.split(",")]
        expected, near = sweep_expectation(symmetry == "spin", base, vary, values, pairs, window)
        labels = [f"E_{n}_{m}" for n, m in pairs]
        return SweepRequest(argv, csv, svg, values, labels, expected, near)

    def near_edge_share(self) -> float:
        cells = [hit for req in self.requests for hit in req.near_edge]
        return sum(cells) / len(cells)

    def execute(self, req: SweepRequest):
        return self.api.cli.main(req.argv)

    def check(self, req: SweepRequest, result) -> Verdict:
        if result != 0:
            return Verdict(True, 0, f"exit code {result}", output=str(result))
        # read and remove, so that the next run of the command is checked on
        # its own output
        with open(req.csv, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(req.svg, encoding="utf-8") as fh:
            svg = fh.read()
        counters = {"cli.bytes_written": os.path.getsize(req.csv) + os.path.getsize(req.svg)}
        os.remove(req.csv)
        os.remove(req.svg)
        reasons = []
        if lines[0].split(",")[1:] != req.labels or len(lines) != len(req.values) + 1:
            return Verdict(True, 0, f"unexpected CSV shape: {lines[0]!r}, {len(lines)} lines",
                           counters, "\n".join(lines) + svg)
        good = reported = missed = extra = 0
        for line, value, expected in zip(lines[1:], req.values, req.expected):
            cells = line.split(",")
            if abs(float(cells[0]) - value) > 1e-9 * (1.0 + abs(value)):
                reasons.append(f"grid value {cells[0]} != {value}")
            for cell, want in zip(cells[1:], expected):
                got = float(cell) if cell else None
                reported += got is not None
                if want is None and got is None:
                    continue
                if want is not None and got is not None and _matches(got, [want]):
                    good += 1
                    continue
                missed += want is not None
                extra += got is not None
                reasons.append(f"cell {value}: got {got}, expected {want}")
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>") and "<polyline" in svg):
            reasons.append("SVG is not a complete line chart")
        counters.update({
            "spectrum.roots_reported": reported,
            "spectrum.roots_missed": missed,
            "spectrum.roots_extra": extra,
        })
        return Verdict(bool(reasons), good, "; ".join(reasons[:3]), counters, "\n".join(lines) + svg)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_config(rng: random.Random, n: int, m: int) -> reference.Config:
    """A random configuration for state (n, m); its family is fixed by the
    stratum so that every seed has the same mix."""
    M = rng.uniform(0.5, 2.0)
    if m == 0:  # critical coupling: delta = -1/4 exactly
        return reference.Config(M=M, a=_log_uniform(rng, 0.2, 2.0), b=0.0,
                                B=rng.uniform(-2.0, 2.0), phi_AB=0.0)
    if (n + m) % 2:  # weak confinement
        return reference.Config(M=M, a=_log_uniform(rng, 0.005, 0.05), b=rng.uniform(-0.3, 1.5),
                                B=rng.uniform(-0.5, 0.5), phi_AB=rng.uniform(-3.0, 3.0))
    return reference.Config(M=M, a=_log_uniform(rng, 0.2, 2.0), b=rng.uniform(-0.3, 1.5),
                            B=rng.uniform(-3.0, 3.0), phi_AB=rng.uniform(-3.0, 3.0))


# draws of every (symmetry, n, m) per seed: 420 requests, one pass of about
# 22 s at the seed commit on a 2-vCPU Xeon
STRATA = 5


class RandomSpectra(Workload):
    name = "random_spectra"

    def _build_requests(self) -> list[SolveRequest]:
        rng = random.Random(f"{self.name}:{self.seed}")
        return [
            SolveRequest(draw_config(rng, n, m), spin, n, m).with_reference()
            for _ in range(STRATA)
            for spin in (True, False)
            for n in range(6)
            for m in range(-3, 4)
        ]

    def execute(self, req: SolveRequest):
        api = self.api
        cfg = api.config(req.cfg)
        sym = api.symmetry(req.spin)
        idx = api.model.StateIndex(req.n, req.m)
        states = api.spectrum.find_states(cfg, sym, idx, api.spectrum.default_window(cfg))
        out = []
        for s in states:
            nodes = api.wavefunc.count_nodes(api.wavefunc.radial_profile(s))
            defect = api.wavefunc.ode_residual(s, cfg)
            norm = api.special.integrate_halfline(
                lambda r, s=s: api.wavefunc.radial_value(s, r) ** 2
            )
            coeffs = api.model.reduced_coefficients(cfg, sym, req.m, s.E)
            problem = api.nu.oscillator_problem(coeffs.p2, coeffs.q, coeffs.delta)
            solution = api.nu.select_solution(api.nu.pi_candidates(problem))
            residual = api.nu.eigen_condition(solution, problem, req.n)
            out.append((s.E, nodes, defect, norm, residual / (1.0 + abs(solution.lam))))
        return out

    def check(self, req: SolveRequest, result) -> Verdict:
        reported = [row[0] for row in result]
        expected = [r.E for r in req.refs]
        missed, extra = compare_roots(reported, expected)
        reasons = []
        if missed:
            reasons.append(f"missed roots {missed}")
        if extra:
            reasons.append(f"roots not in the reference {extra}")
        good = 0
        for E, nodes, defect, norm, residual in result:
            bad = []
            if nodes != req.n:
                bad.append(f"{nodes} nodes")
            if not defect <= ODE_TOL:
                bad.append(f"ODE defect {defect:.2e}")
            if not abs(norm - 1.0) <= NORM_TOL:
                bad.append(f"norm {norm!r}")
            if not abs(residual) <= NU_TOL:
                bad.append(f"NU residual {residual:.2e}")
            if bad:
                reasons.append(f"E = {E}: " + ", ".join(bad))
            elif _matches(E, expected):
                good += 1
        counters = _root_counters(reported, missed, extra)
        return Verdict(bool(reasons), good, "; ".join(reasons), counters, repr(result))


WORKLOADS = {w.name: w for w in (VerifyMatrix, FieldSweep, RandomSpectra)}
