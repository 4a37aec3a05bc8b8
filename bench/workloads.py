"""The three workloads: seeded inputs, the timed closed loop and the checks.

Every workload is a closed loop with one client.  Its operations come in
rounds; a round holds every input class of the workload in fixed
proportions (so the mix of a run does not depend on where the clock
stops), and the loop starts
new rounds until the timed window reaches ``--seconds``.  Parameters are
drawn per round from a seed-shifted Kronecker sequence, so any prefix of
rounds covers each parameter box evenly and the mean cost of a run moves
little from seed to seed.  Each operation is checked right after it ran,
outside the timed window.

Only public ``tdlinnik`` names and the ``python -m tdlinnik`` CLI are used.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Tracer
from tdlinnik import (
    GdsSibuyaParams,
    LinnikParams,
    NegativeBinomialParams,
    PoissonParams,
    RejectionBudgetExceeded,
    SibuyaParams,
    StableParams,
    TdlError,
    TdlParams,
    TdsParams,
    TemperedStableParams,
    build_pmf_table,
    chi_square_gof,
    empirical_laplace,
    family_laplace,
    moments_from_pmf,
    sample_batch,
    series_pmf,
    tdl_moments,
)
from warmup import MAX_TRIES

ROOT = Path(__file__).resolve().parent.parent

#: draws per sampler operation (simulate, CLI ``sample``)
BATCH_N = 100_000
SMALL_N = 1_000
#: kmax ladder of pmf-fit: 50 * 2^(j/2), j = 0..10, i.e. 50 .. 1600
KMAX_LADDER = tuple(int(round(50 * 2 ** (j / 2))) for j in range(11))
#: sizes up to SMALL_KMAX get SMALL_COPIES points per stratum and round:
#: with one point per size the median and p90 sat where the cost per
#: operation climbs fastest, and moved by 13% and 20% between runs
SMALL_KMAX, SMALL_COPIES = 400, 4
#: acceptance-suite bound against the oracle for k <= 50
ORACLE_ORDER, ORACLE_RTOL, ORACLE_FLOOR = 50, 1e-10, 1e-13
#: moment check applies where moments_from_pmf accepts the table
MOMENT_TAIL, MOMENT_RTOL = 1e-9, 1e-7
#: a GOF counts as failed only below this p-value, so a correct sampler
#: that draws different values keeps ok_ratio (about 1000 tests per run)
GOF_MIN_P = 1e-6
GOF_TABLE_KMAX, GOF_SERIES_ORDER = 200, 100
LAPLACE_T, LAPLACE_SE = (0.25, 0.5, 1.0, 2.0), 6.0
#: no new round starts after this much wall time (the run must end in 180 s)
WALL_GUARD_S = 100.0
CLI_TIMEOUT_S = 120.0

OK, ERROR, WRONG = "ok", "error", "wrong"

#: TDL strata: (a < 0, d == 0, c near 0.95)
STRATA = tuple(
    (neg, d0, chigh) for neg in (True, False) for d0 in (True, False) for chigh in (False, True)
)
_ALPHA = np.sqrt([2.0, 3.0, 5.0, 7.0]) % 1.0


def lattice(shift: np.ndarray, r: int) -> list[float]:
    """Point r of the Kronecker sequence shifted by ``shift`` (in [0, 1)^4)."""
    return ((shift + r * _ALPHA) % 1.0).tolist()


def tdl_point(stratum, u) -> TdlParams:
    neg, d0, chigh = stratum
    a = -(0.5 + u[0]) if neg else 0.25 + 0.75 * u[0]
    b = 0.7 * 2.0 ** u[1]
    c = 0.9 + 0.05 * u[2] if chigh else 0.02 + 0.08 * u[2]
    d = 0.0 if d0 else 0.5 * 4.0 ** u[3]
    return TdlParams(a, b, c, d)


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    work: int


def shuffled(groups: list[list[Op]], rng: np.random.Generator) -> list[Op]:
    return [op for i in rng.permutation(len(groups)) for op in groups[i]]


# ---------------------------------------------------------------------------
# checks (untimed)


def check_table(p: TdlParams, kmax: int, table, closed, summed, tr: Tracer, stats: dict) -> str:
    """PMF table against the oracle for k <= 50, moments against closed forms."""
    if len(table.p) != kmax + 1 or not np.all((table.p >= 0.0) & (table.p <= 1.0)):
        return WRONG
    if abs(float(table.p.sum()) + table.tail_mass - 1.0) > 1e-12:
        return WRONG
    order = min(kmax, ORACLE_ORDER)
    ref = tr.call("oracle.series_pmf", series_pmf, "tdl", p, order, attrs={"order": order})
    rel = float(np.max(
        np.abs(table.p[: order + 1] - ref.p) / np.maximum(np.abs(ref.p), ORACLE_FLOOR)
    ))
    stats["analytic.max_relerr_vs_oracle"] = max(stats["analytic.max_relerr_vs_oracle"], rel)
    if not rel <= ORACLE_RTOL:
        return WRONG
    if summed is not None and truncation_negligible(table, closed.sigma2):
        rel = max(
            abs(summed.mu - closed.mu) / abs(closed.mu),
            abs(summed.sigma2 - closed.sigma2) / closed.sigma2,
        )
        stats["moments.max_relerr"] = max(stats["moments.max_relerr"], rel)
        if not rel <= MOMENT_RTOL:
            return WRONG
    return OK


def truncation_negligible(table, sigma2: float) -> bool:
    """Whether the second moment a table leaves out is below 1e-9 sigma2.

    tail_mass < 1e-9 (the precondition of moments_from_pmf) does not make
    the summed moments accurate to 1e-7: the missing mass sits at k >
    kmax.  The left-out part is extrapolated from the geometric decay of
    the last two entries.
    """
    last, prev = float(table.p[-1]), float(table.p[-2])
    if last == 0.0:
        return True
    rho = last / prev if prev > 0.0 else 1.0
    if rho >= 1.0:
        return False
    reach = table.kmax + 1.0 / (1.0 - rho)
    return last * rho / (1.0 - rho) * reach**2 < 1e-9 * sigma2


def reference_pmf(law: str, params, tr: Tracer):
    if law in ("tdl", "tds"):
        return tr.call("analytic.build_pmf_table", build_pmf_table, params, GOF_TABLE_KMAX,
                       attrs={"kmax": GOF_TABLE_KMAX})
    return tr.call("oracle.series_pmf", series_pmf, law, params, GOF_SERIES_ORDER,
                   attrs={"order": GOF_SERIES_ORDER})


def check_batch(law: str, params, n: int, batch, tr: Tracer, refs: dict) -> str:
    """Chi-square GOF for integer laws, Laplace transform for ps/tps."""
    values = np.asarray(batch.values)
    if batch.law != law or values.shape != (n,):
        return WRONG
    if law in ("ps", "tps"):
        for t in LAPLACE_T:
            est, se = tr.call("oracle.empirical_laplace", empirical_laplace, batch, t)
            want = tr.call("analytic.family_laplace", family_laplace, law, params, t)
            if not abs(est - want) <= LAPLACE_SE * se:
                return WRONG
        return OK
    if not np.issubdtype(values.dtype, np.integer) or values.min() < 0:
        return WRONG
    key = (law, params)
    if key not in refs:
        refs[key] = reference_pmf(law, params, tr)
    report = tr.call("oracle.chi_square_gof", chi_square_gof, batch, refs[key],
                     counts=lambda rep: {"bins": len(rep.bins), "p": rep.p_value})
    return OK if report.p_value >= GOF_MIN_P else WRONG


def check_cli(proc, expected, tr: Tracer) -> str:
    """``expected`` is a callable giving the library's stdout, or None for
    ``check`` (all [PASS] lines).  A typed error on both sides is ERROR."""
    if expected is None:
        lines = proc.stdout.decode().splitlines()
        passed = (
            proc.returncode == 0
            and len(lines) >= 2
            and all(line.startswith("[PASS] ") for line in lines[:-1])
            and lines[-1] == f"all {len(lines) - 1} checks passed"
        )
        return OK if passed else WRONG
    try:
        want = expected(tr)
    except TdlError:
        return ERROR if proc.returncode != 0 else WRONG
    return OK if proc.returncode == 0 and proc.stdout == want.encode() else WRONG


# ---------------------------------------------------------------------------
# workloads


class PmfFit:
    """build_pmf_table + tdl_moments (+ moments_from_pmf) over 8 strata x 11 sizes."""

    name = "pmf-fit"
    setup_argv = ("-c", "import warmup; warmup.pmf_fit()")

    def __init__(self, seed: int, ladder=KMAX_LADDER) -> None:
        rng = np.random.default_rng([seed, 0])
        self.seed = seed
        # one sequence per stratum and size, so a run's points of a cell
        # are consecutive Kronecker points and their costs vary little by seed
        self.cells = [
            (s, k, SMALL_COPIES if k <= SMALL_KMAX else 1, rng.random(4))
            for s in STRATA
            for k in ladder
        ]
        self.stats = {"analytic.max_relerr_vs_oracle": 0.0, "moments.max_relerr": 0.0}

    def warmup(self) -> None:
        import warmup

        warmup.pmf_fit()

    def make_round(self, r: int) -> list[Op]:
        groups = [[Op("table", (tdl_point(s, lattice(shift, r * copies + j)), k), k + 1)]
                  for s, k, copies, shift in self.cells for j in range(copies)]
        return shuffled(groups, np.random.default_rng([self.seed, 0, r]))

    def run(self, op: Op, tr: Tracer):
        p, kmax = op.args
        table = tr.call("analytic.build_pmf_table", build_pmf_table, p, kmax,
                        attrs={"kmax": kmax})
        closed = tr.call("moments.tdl_moments", tdl_moments, p)
        summed = None
        if table.tail_mass < MOMENT_TAIL:
            summed = tr.call("moments.moments_from_pmf", moments_from_pmf, table)
        return table, closed, summed

    def check(self, op: Op, result, tr: Tracer) -> str:
        p, kmax = op.args
        return check_table(p, kmax, *result, tr, self.stats)


#: building-block batches of simulate: kind -> (law, params from u in [0,1)^4)
BLOCKS = {
    "tds_neg": ("tds", lambda u: TdsParams(-(0.25 + 1.75 * u[0]), 0.5 * 4 ** u[1], 0.1 + 0.8 * u[2])),
    "tds_pos": ("tds", lambda u: TdsParams(0.1 + 0.9 * u[0], 0.5 * 3 ** u[1], 0.1 + 0.8 * u[2])),
    "ps": ("ps", lambda u: StableParams(0.3 + 0.6 * u[0], 0.5 * 4 ** u[1])),
    "tps_pos": ("tps", lambda u: TemperedStableParams(0.3 + 0.6 * u[0], 0.5 + 0.5 * u[1], 0.5 + u[2])),
    "tps_neg": ("tps", lambda u: TemperedStableParams(-(0.25 + 1.75 * u[0]), 0.5 * 4 ** u[1], 0.5 * 4 ** u[2])),
    "gds": ("gds", lambda u: GdsSibuyaParams(0.2 + 0.7 * u[0], 0.3 + 0.65 * u[1])),
    "sibuya": ("sibuya", lambda u: SibuyaParams(0.9 + 0.09 * u[0])),
    "nb": ("nb", lambda u: NegativeBinomialParams(0.2 + 0.6 * u[0], 0.5 * 8 ** u[1])),
    "poisson": ("poisson", lambda u: PoissonParams(0.5 * 40 ** u[0])),
    "dl": ("dl", lambda u: LinnikParams(0.55 + 0.35 * u[0], 0.5 * 4 ** u[1], 0.5 * 8 ** u[2])),
}


#: kind of the retry after a default-route batch ran out of ``max_tries``
FALLBACK = "tdl.route_default.fallback"


class Simulate:
    """sample_batch: each TDL stratum on the default route, then on its
    rejection-free route (c for a < 0, d for a > 0), plus the building blocks.

    A default-route batch that raises RejectionBudgetExceeded is retried on
    the rejection-free route inside the same operation, as a client would:
    the spent budget stays in the operation's time and the typed error in
    the per-layer counts, and no operation fails.  The building-block boxes
    keep clear of the support caps (Sibuya gamma >= 0.9, dl gamma >= 0.55),
    where a batch of 1e5 raises HeavyTailOverflow with odds below 1e-4.
    """

    name = "simulate"
    setup_argv = ("-c", "import warmup; warmup.simulate()")

    def __init__(self, seed: int, n: int = BATCH_N) -> None:
        rng = np.random.default_rng([seed, 1])
        self.seed, self.n = seed, n
        self.shifts = {key: rng.random(4) for key in (*STRATA, *BLOCKS)}
        self.refs: dict = {}

    def warmup(self) -> None:
        import warmup

        warmup.simulate()

    def make_round(self, r: int) -> list[Op]:
        self.refs.clear()
        rng = np.random.default_rng([self.seed, 1, r])
        seeds = iter(rng.integers(0, 2**63, size=len(STRATA) * 2 + len(BLOCKS)).tolist())
        groups = []
        for s in STRATA:
            p = tdl_point(s, lattice(self.shifts[s], r))
            route = "c" if p.a < 0 else "d"
            groups.append([
                Op("tdl.route_default", ("tdl", p, None, next(seeds)), self.n),
                Op(f"tdl.route_{route}", ("tdl", p, route, next(seeds)), self.n),
            ])
        for kind, (law, make) in BLOCKS.items():
            groups.append([Op(kind, (law, make(lattice(self.shifts[kind], r)), None, next(seeds)), self.n)])
        return shuffled(groups, rng)

    def run(self, op: Op, tr: Tracer):
        law, params, route, seed = op.args
        kwargs = {"route": route} if route else {}
        try:
            return tr.call("sampler.sample_batch", sample_batch, law, params, self.n, seed,
                           max_tries=MAX_TRIES, attrs={"kind": op.kind, "n": self.n}, **kwargs)
        except RejectionBudgetExceeded:
            if op.kind != "tdl.route_default":
                raise
        # the client's retry: the rejection-free route, same seed
        fallback = "c" if params.a < 0 else "d"
        return tr.call("sampler.sample_batch", sample_batch, law, params, self.n, seed,
                       route=fallback, max_tries=MAX_TRIES, attrs={"kind": FALLBACK, "n": self.n})

    def check(self, op: Op, batch, tr: Tracer) -> str:
        law, params, _route, _seed = op.args
        return check_batch(law, params, self.n, batch, tr, self.refs)


MOMENT_FIELDS = ("mu", "sigma2", "D", "m3", "m4", "alpha3", "alpha4")


def pmf_csv(table) -> str:
    """The CLI's ``pmf --format csv`` rendering of a table."""
    lines = ["k,p,cumulative\n"]
    cum = 0.0
    for k, pk in enumerate(table.p):
        cum += pk
        lines.append(f"{k},{float(pk)!r},{float(cum)!r}\n")
    lines.append(f"tail,{float(table.tail_mass)!r},{1.0!r}\n")
    return "".join(lines)


def tdl_flags(p: TdlParams) -> list[str]:
    return ["-a", repr(p.a), "-b", repr(p.b), "-c", repr(p.c), "-d", repr(p.d)]


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tdlinnik", *argv],
        cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S,
    )


class CliSession:
    """Sequential ``python -m tdlinnik`` commands, six kinds per round.

    The sample commands use a < 0 points, where the default route has no
    retry loop: a run holds only about a dozen commands, too few to resolve
    a failure rate; simulate measures the a > 0 default-route failures.
    """

    name = "cli-session"
    setup_argv = ("-m", "tdlinnik", "--help")
    kinds = ("moments", "pmf", "pmf_other_law", "sample", "sample_small", "check")

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        self.seed = seed
        self.offset = int(rng.integers(0, 8))
        self.shifts = {kind: rng.random(4) for kind in self.kinds}

    def warmup(self) -> None:
        pass  # the discarded set-up already warmed the page cache

    def make_round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 2, r])
        u = {kind: lattice(shift, r) for kind, shift in self.shifts.items()}
        i = r + self.offset
        p_mom = tdl_point(STRATA[i % 8], u["moments"])
        p_pmf = tdl_point(STRATA[(i + 3) % 8], u["pmf"])
        kmax = (50, 100, 200, 400)[i % 4]
        g = u["pmf_other_law"]
        dl = LinnikParams(0.3 + 0.6 * g[0], 0.5 * 4 ** g[1], 0.5 * 8 ** g[2])
        dl_kmax = (50, 200)[i % 2]
        p_big = tdl_point(STRATA[i % 4], u["sample"])
        p_small = tdl_point(STRATA[(i + 1) % 4], u["sample_small"])
        seed_big, seed_small = rng.integers(0, 2**63, size=2).tolist()

        def moments(tr):
            s = tr.call("moments.tdl_moments", tdl_moments, p_mom)
            return json.dumps({f: getattr(s, f) for f in MOMENT_FIELDS}, indent=2) + "\n"

        def pmf(tr):
            return pmf_csv(tr.call("analytic.build_pmf_table", build_pmf_table, p_pmf, kmax,
                                   attrs={"kmax": kmax}))

        def pmf_other(tr):
            return pmf_csv(tr.call("oracle.series_pmf", series_pmf, "dl", dl, dl_kmax,
                                   attrs={"order": dl_kmax}))

        def sampled(p, n, seed):
            def expect(tr):
                batch = tr.call("sampler.sample_batch", sample_batch, "tdl", p, n, seed,
                                max_tries=MAX_TRIES, attrs={"kind": "cli", "n": n})
                return "".join(f"{v}\n" for v in batch.values.tolist())
            return expect

        def sample_argv(p, n, seed):
            return ["sample", "--law", "tdl", *tdl_flags(p), "-n", str(n), "--seed", str(seed),
                    "--max-tries", str(MAX_TRIES)]

        dl_flags = ["--gamma", repr(dl.gamma), "--lambda", repr(dl.lam), "--delta", repr(dl.delta)]
        ops = [
            ("moments", ["moments", *tdl_flags(p_mom)], moments),
            ("pmf", ["pmf", "--law", "tdl", *tdl_flags(p_pmf), "--kmax", str(kmax)], pmf),
            ("pmf_other_law", ["pmf", "--law", "dl", *dl_flags, "--kmax", str(dl_kmax)], pmf_other),
            ("sample", sample_argv(p_big, BATCH_N, seed_big), sampled(p_big, BATCH_N, seed_big)),
            ("sample_small", sample_argv(p_small, SMALL_N, seed_small),
             sampled(p_small, SMALL_N, seed_small)),
            ("check", ["check", "--grid", "small"], None),
        ]
        return shuffled([[Op(kind, (argv, expect), 1)] for kind, argv, expect in ops], rng)

    def run(self, op: Op, tr: Tracer):
        return tr.call(f"cli.{op.kind}", run_cli, op.args[0],
                       counts=lambda proc: {"bytes": len(proc.stdout), "rc": proc.returncode})

    def check(self, op: Op, proc, tr: Tracer) -> str:
        return check_cli(proc, op.args[1], tr)


WORKLOADS = {w.name: w for w in (PmfFit, Simulate, CliSession)}


# ---------------------------------------------------------------------------
# the timed closed loop


@dataclass
class Record:
    times: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    work: int = 0
    timed: float = 0.0
    rounds: int = 0

    @property
    def work_per_s(self) -> float:
        return self.work / self.timed


def timed_loop(wl, tr: Tracer, seconds: float | None = None, rounds: int | None = None,
               between_ops=None) -> Record:
    """Run whole rounds until the timed window reaches ``seconds`` (or for
    exactly ``rounds`` rounds).  Only the operation itself is timed;
    ``between_ops(rec)`` runs untimed after each operation."""
    rec = Record()
    wall0 = time.monotonic()
    while (rec.rounds < rounds) if rounds is not None else (
        rec.timed < seconds and time.monotonic() - wall0 < WALL_GUARD_S
    ):
        for op in wl.make_round(rec.rounds):
            with tr.span("op", op=len(rec.times), kind=op.kind) as attrs:
                t0 = time.perf_counter()
                try:
                    result, outcome = wl.run(op, tr), OK
                except TdlError:
                    result, outcome = None, ERROR
                dt = time.perf_counter() - t0
            if outcome == OK:
                with tr.span("check"):
                    outcome = wl.check(op, result, tr)
            attrs["outcome"] = outcome
            rec.times.append(dt)
            rec.outcomes.append(outcome)
            rec.timed += dt
            rec.work += op.work if outcome == OK else 0
            if between_ops is not None:
                between_ops(rec)
        rec.rounds += 1
    return rec
