"""Command-line interface: pmf, sample, moments, figure, check.

Exit codes: 0 ok, 1 check failure, 2 domain error, 3 numerical
instability, 4 rejection budget exceeded, 5 degenerate distribution.
All outputs are byte-deterministic for a fixed (arguments, seed, build).
The options are built from :mod:`limits` alone, and each command imports
what it uses in its body: the law registry, ``moments`` and ``json`` where
it needs them, numpy only in the commands that work on arrays (``pmf``,
``sample``, ``check``).  So ``--help``, ``--version`` and usage errors
load only click, this module, :mod:`errors` and :mod:`limits`, and
``moments`` and ``figure`` start without numpy.
"""

from __future__ import annotations

import functools
import sys

import click

from . import __version__
from .errors import (
    DegenerateDistribution,
    DomainError,
    EmptyGrid,
    HeavyTailOverflow,
    IncompatibleRoute,
    InsufficientSample,
    NumericalInstability,
    RejectionBudgetExceeded,
    SingularComposition,
    TailTooHeavy,
    TdlError,
    UnknownLaw,
)
from .limits import DEFAULT_KMAX, DEFAULT_MAX_TRIES, LAW_TAGS, MAX_SERIES_ORDER, TDL_ROUTES

EXIT_CHECK_FAILURE = 1
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3
EXIT_REJECTION = 4
EXIT_DEGENERATE = 5

_EXIT_CODES = (
    (DegenerateDistribution, EXIT_DEGENERATE),
    ((RejectionBudgetExceeded, HeavyTailOverflow), EXIT_REJECTION),
    ((NumericalInstability, SingularComposition, TailTooHeavy, InsufficientSample), EXIT_NUMERICAL),
    ((DomainError, UnknownLaw, IncompatibleRoute, EmptyGrid), EXIT_DOMAIN),
)

#: values formatted and written per stdout write by ``sample``
_SAMPLE_CHUNK = 1 << 16


def _exit_code(exc: TdlError) -> int:
    for types, code in _EXIT_CODES:
        if isinstance(exc, types):
            return code
    return EXIT_DOMAIN


def map_errors(fn):
    """Translate package errors into the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except TdlError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(_exit_code(exc))

    return wrapper


def _law_params(law: str, flags: dict):
    """The params record of ``law``, filled from its flags in field order."""
    from .laws import LAWS

    entry = LAWS[law]
    for name in entry.flags:
        if flags[name] is None:
            dashes = "-" if len(name) == 1 else "--"
            raise DomainError(f"law requires {dashes}{name}")
    return entry.params(*(flags[name] for name in entry.flags))


def law_options(fn):
    """The shared law/parameter flag pool."""
    decorators = [
        click.option("--law", type=click.Choice(LAW_TAGS), default="tdl", show_default=True),
        click.option("-a", "a", type=float, default=None, help="tail exponent (tdl/tds)"),
        click.option("-b", "b", type=float, default=None, help="scale (tdl/tds)"),
        click.option("-c", "c", type=float, default=None, help="tempering in [0,1] (tdl/tds)"),
        click.option("-d", "d", type=float, default=None, help="shape >= 0 (tdl)"),
        click.option("--gamma", type=float, default=None, help="tail index"),
        click.option("--lambda", type=float, default=None, help="scale"),
        click.option("--theta", type=float, default=None, help="tempering rate"),
        click.option("--delta", type=float, default=None, help="shape"),
        click.option("--pi", type=float, default=None, help="NB success probability"),
        click.option("--tau", type=float, default=None, help="GDS damping in (0,1]"),
    ]
    for dec in reversed(decorators):
        fn = dec(fn)
    return fn


def _open_out(out):
    return click.open_file(out, "w") if out else sys.stdout


def _fmt(x: float) -> str:
    return repr(float(x))


@click.group()
@click.version_option(__version__)
def main():
    """Tempered discrete Linnik distribution family: PMFs, moments, sampling."""


@main.command("pmf")
@law_options
@click.option("--kmax", type=int, default=DEFAULT_KMAX, show_default=True)
@click.option("--oracle", "use_oracle", is_flag=True,
              help="use the extended-precision series path (kmax <= 200)")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", type=click.Path(writable=True, dir_okay=False), default=None)
@map_errors
def cmd_pmf(law, kmax, use_oracle, fmt, out, **flags):
    """Tabulate P(X = k) for k = 0..kmax with a tail-mass footer."""
    from .laws import LAWS, series_pmf

    if not LAWS[law].is_count:
        raise DomainError(f"law {law!r} is continuous; no probability mass function")
    params = _law_params(law, flags)
    if law in ("tdl", "tds") and not use_oracle:
        from .analytic import build_pmf_table

        table = build_pmf_table(params, kmax)
    else:
        if not 0 <= kmax <= MAX_SERIES_ORDER:
            raise DomainError(
                f"--kmax must lie in [0, {MAX_SERIES_ORDER}] on the series path "
                f"(--oracle, or any law but tdl and tds), got {kmax}"
            )
        table = series_pmf(law, params, kmax)
    stream = _open_out(out)
    if fmt == "csv":
        stream.write("k,p,cumulative\n")
        cum = 0.0
        for k, pk in enumerate(table.p):
            cum += pk
            stream.write(f"{k},{_fmt(pk)},{_fmt(cum)}\n")
        stream.write(f"tail,{_fmt(table.tail_mass)},{_fmt(1.0)}\n")
    else:
        import dataclasses
        import json

        payload = {
            "law": table.law,
            "params": dataclasses.asdict(params),
            "kmax": table.kmax,
            "p": [float(x) for x in table.p],
            "tail_mass": table.tail_mass,
        }
        stream.write(json.dumps(payload, indent=2) + "\n")
    if out:
        stream.close()


@main.command("sample")
@law_options
@click.option("-n", "n", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=None, help="64-bit seed (echoed to stderr when defaulted)")
@click.option("--stream", type=int, default=0, show_default=True)
@click.option("--route", type=click.Choice(TDL_ROUTES), default="auto", show_default=True,
              help="generation identity of tdl/tds and of ds/dl, drawn as their TDL "
                   "members (other laws take only auto); auto: for c < 1 the "
                   "law's own PMF table where it pays, else route c (NB jumps) "
                   "for a < 0 or route d (GDS-Sibuya jumps) for a > 0; route a "
                   "at c = 1")
@click.option("--max-tries", type=int, default=DEFAULT_MAX_TRIES, show_default=True)
@click.option("--out", type=click.Path(writable=True, dir_okay=False), default=None)
@map_errors
def cmd_sample(law, n, seed, stream, route, max_tries, out, **flags):
    """Draw n variates (newline-delimited; deterministic for a fixed seed)."""
    import numpy as np

    from .laws import sample_batch

    params = _law_params(law, flags)
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2**63))
        click.echo(f"seed: {seed}", err=True)
    batch = sample_batch(law, params, n, seed, stream=stream, route=route, max_tries=max_tries)
    sink = _open_out(out)
    # one write per chunk of Python scalars: a write and a numpy scalar
    # conversion per value cost several times the draws themselves
    values = batch.values if np.issubdtype(batch.values.dtype, np.integer) else (
        batch.values.astype(float, copy=False))
    for lo in range(0, len(values), _SAMPLE_CHUNK):
        sink.write("\n".join(map(repr, values[lo : lo + _SAMPLE_CHUNK].tolist())) + "\n")
    if out:
        sink.close()


@main.command("moments")
@law_options
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json", show_default=True)
@click.option("--out", type=click.Path(writable=True, dir_okay=False), default=None)
@map_errors
def cmd_moments(law, fmt, out, **flags):
    """Mean, variance, dispersion, and shape indexes of the TDL law."""
    from .moments import tdl_moments

    if law not in ("tdl", "tds"):
        raise DomainError("moment formulas are provided for the tdl and tds laws only")
    params = _law_params(law, flags)
    summary = tdl_moments(params)
    stream = _open_out(out)
    fields = ["mu", "sigma2", "D", "m3", "m4", "alpha3", "alpha4"]
    if fmt == "csv":
        stream.write(",".join(fields) + "\n")
        stream.write(",".join(_fmt(getattr(summary, f)) for f in fields) + "\n")
    else:
        import json

        stream.write(json.dumps({f: getattr(summary, f) for f in fields}, indent=2) + "\n")
    if out:
        stream.close()


#: preset (c, d) sweeps for the figure subcommand, one per tail exponent of
#: interest; d ranges are clipped to d >= 0 (negative shape is out of scope)
#: and the clipping is stated in the output header
FIGURE_PRESETS = {
    1: {"a": 0.25, "b": 1.0, "c_range": (0.3, 0.7), "d_range": (-1.0, 3.0)},
    2: {"a": 0.5, "b": 1.0, "c_range": (0.3, 0.7), "d_range": (-1.0, 3.0)},
    3: {"a": 0.75, "b": 1.0, "c_range": (0.3, 0.7), "d_range": (-1.0, 3.0)},
    4: {"a": -1.0, "b": 1.0, "c_range": (0.1, 0.9), "d_range": (0.0, 3.0)},
}


def _svg_polyline(rows, width=640, height=480, margin=40) -> str:
    """Self-contained SVG scatter of the (alpha3, alpha4) trace.

    One polyline per c value (varying d), which is enough to see the
    reachable region; CSV remains the primary interchange format.
    """
    xs = [r[2] for r in rows]
    ys = [r[3] for r in rows]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    spanx = (x1 - x0) or 1.0
    spany = (y1 - y0) or 1.0

    def to_px(x, y):
        px = margin + (x - x0) / spanx * (width - 2 * margin)
        py = height - margin - (y - y0) / spany * (height - 2 * margin)
        return f"{px:.2f},{py:.2f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<!-- alpha3 in [{_fmt(x0)}, {_fmt(x1)}], alpha4 in [{_fmt(y0)}, {_fmt(y1)}] -->',
    ]
    for cval in sorted({r[0] for r in rows}):
        pts = " ".join(to_px(r[2], r[3]) for r in rows if r[0] == cval)
        lines.append(
            f'<polyline fill="none" stroke="black" stroke-width="1" points="{pts}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


@main.command("figure")
@click.option("--preset", type=click.IntRange(1, 4), default=None,
              help="preset traces 1-4 (a = 1/4, 1/2, 3/4, -1)")
@click.option("-a", "a", type=float, default=None)
@click.option("-b", "b", type=float, default=None)
@click.option("--c-min", type=float, default=None)
@click.option("--c-max", type=float, default=None)
@click.option("--d-min", type=float, default=None)
@click.option("--d-max", type=float, default=None)
@click.option("--grid-c", type=int, default=50, show_default=True)
@click.option("--grid-d", type=int, default=50, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "svg"]), default="csv", show_default=True)
@click.option("--out", type=click.Path(writable=True, dir_okay=False), default=None)
@map_errors
def cmd_figure(preset, a, b, c_min, c_max, d_min, d_max, grid_c, grid_d, fmt, out):
    """(alpha3, alpha4) parametric trace over a (c, d) grid."""
    from .moments import skew_kurt_trace

    if preset is not None:
        cfg = FIGURE_PRESETS[preset]
        a, b = cfg["a"], cfg["b"]
        c_range, d_range = cfg["c_range"], cfg["d_range"]
    else:
        if None in (a, b, c_min, c_max, d_min, d_max):
            raise DomainError("provide --preset or all of -a -b --c-min --c-max --d-min --d-max")
        c_range, d_range = (c_min, c_max), (d_min, d_max)
    clipped = d_range[0] < 0
    if clipped:
        # grid the clipped range so d = 0 itself is swept
        d_range = (0.0, d_range[1])
    rows = skew_kurt_trace(a, b, c_range, d_range, (grid_c, grid_d))
    stream = _open_out(out)
    if fmt == "svg":
        stream.write(_svg_polyline(rows))
    else:
        if clipped:
            stream.write(
                f"# d range clipped to [0.0, {_fmt(d_range[1])}]"
                " (negative shape is out of scope)\n"
            )
        stream.write("c,d,alpha3,alpha4\n")
        for row in rows:
            stream.write(",".join(_fmt(x) for x in row) + "\n")
    if out:
        stream.close()


@main.command("check")
@click.option("--grid", type=click.Choice(["small", "full"]), default="small", show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@map_errors
def cmd_check(grid, seed):
    """Run the built-in identity, oracle, and goodness-of-fit checks."""
    from . import selfcheck

    results = selfcheck.run_checks(grid=grid, seed=seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"[{status}] {r.name}: {r.detail}")
        failed += not r.passed
    if failed:
        click.echo(f"{failed}/{len(results)} checks failed", err=True)
        sys.exit(EXIT_CHECK_FAILURE)
    click.echo(f"all {len(results)} checks passed")


if __name__ == "__main__":
    main()
