"""Command line interface.

The choices of `dim --family`, `series --family`, `--route` and
`--chirality`, `verify --case` and `sweep --case`, the parameters each family
or case takes, the formulas `dim` prints and the ranges a sweep runs over all
come from the FAMILIES and CASES tables in `characters`, and
`verify_correspondence` alone checks a case's parameters.
An option the chosen family or case does not take is a usage error: a
`--route` the family lacks, and `--chirality` for any family but soEven.
`--route` defaults to the family's first route, `--chirality` to last.

Exit codes:

0  success, and an all-match verdict
1  a mathematical mismatch, and nothing else: a verify or sweep verdict, a
   failed selftest check, or the formulas of one dim value disagreeing
2  usage error (click's default), including a sweep in which some case
   has no combination to check
3  internal error: any other uncaught exception, reported as one
   "internal error: ..." line on stderr

Called with standalone_mode=False, as a library caller or test harness does,
the group lets every exception propagate unchanged.  OSPDIM_ORDER, when set
and not empty, replaces the default truncation order.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import sys

import click

from . import __version__
from .characters import CASES, FAMILIES, IrrepSpec, verify_correspondence
from .partitions import Partition
from .series import DEFAULT_ORDER

FORMATS = click.Choice(["text", "json", "csv"])
# every --order: the flag beats OSPDIM_ORDER, which beats the default, and a negative value is a usage error
ORDER = {"type": click.IntRange(min=0), "envvar": "OSPDIM_ORDER", "show_envvar": True, "show_default": True}


def _parse_partition(text: str | None, flag: str) -> Partition:
    if text is None or not text.strip():
        return Partition()
    try:
        return Partition(int(x) for x in text.split(","))
    except ValueError as exc:
        raise click.UsageError(f"bad {flag}: {exc}")


def _spec(family: str, given: dict, **defaults) -> IrrepSpec:
    """The spec of a family from the options given, None meaning absent.  A
    defaulted option counts only for a family that takes it.  A missing
    parameter, a bad one or one the family does not take is a usage error."""
    params = FAMILIES[family].params
    values = {name: value for name, value in defaults.items() if name in params}
    values.update((name, value) for name, value in given.items() if value is not None)
    for name in params:
        if name not in values:
            raise click.UsageError(f"missing required option --{name}")
    try:
        return IrrepSpec(family, **values)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _emit(fmt: str, failed: bool = False, **render) -> None:
    """The one writer of every command's output, and the one exit 1, taken
    after writing if a check failed.  `render` maps each format to a function
    that builds it: json to the payload, csv to the rows (header first; the
    `csv` module quotes a field that holds a comma), text to the lines.
    Only the requested one is called."""
    out = render[fmt]()
    if fmt == "json":
        click.echo(json.dumps(out))
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(out)
        click.echo(buf.getvalue(), nl=False)
    else:
        click.echo("\n".join(out))
    if failed:
        sys.exit(1)


class _Group(click.Group):
    """A group that maps an uncaught non-click exception to exit code 3 in
    standalone mode, so a crash never reads as a mismatch."""

    def main(self, *args, standalone_mode: bool = True, **kwargs):
        try:
            return super().main(*args, standalone_mode=standalone_mode, **kwargs)
        except Exception as exc:
            if not standalone_mode:
                raise
            click.echo(f"internal error: {exc!r}", err=True)
            sys.exit(3)


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="ospdim")
def main():
    """Exact t-graded dimensions and superdimensions of spinor-like
    representations, and the correspondences between them."""


@main.command()
@click.option("--family", type=click.Choice([f for f, row in FAMILIES.items() if row.values]), required=True)
@click.option("--m", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--lambda", "lam_text", default=None, help="partition as comma-separated parts")
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def dim(family, m, n, lam_text, fmt):
    """Integer dimension or superdimension of a single irrep."""
    lam = _parse_partition(lam_text, "--lambda")
    spec = _spec(family, {"m": m, "n": n, "lam": None if lam_text is None else lam.parts}, lam=())
    columns = {"family": family}
    columns.update(("lambda", spec.label) if name == "lam" else (name, getattr(spec, name))
                   for name in FAMILIES[family].params)
    values = {name: formula(spec) for name, formula in FAMILIES[family].values.items()}
    first = next(iter(values.values()))
    payload = {"spec": spec.to_json_dict()}
    payload["value"] = columns["value"] = first if isinstance(first, int) else str(first)
    lines = [str(first)]
    agree = len(set(values.values())) == 1
    if len(values) > 1:
        flag = "true" if agree else "false"
        payload.update(values, agreement=agree)
        columns["agreement"] = flag
        lines.append(f"{'='.join(values)}: {flag}")
    _emit(fmt, failed=not agree, json=lambda: payload, csv=lambda: [list(columns), list(columns.values())],
          text=lambda: lines)


@main.command()
@click.option("--family", type=click.Choice([f for f, row in FAMILIES.items() if row.routes]), required=True)
@click.option("--m", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--p", type=int, default=None)
@click.option("--order", default=DEFAULT_ORDER, help="truncation order", **ORDER)
@click.option("--route", type=click.Choice(list(dict.fromkeys(r for f in FAMILIES.values() for r in f.routes))),
              help="computation route [default: the family's first]")
@click.option("--chirality", type=click.Choice(FAMILIES["soEven"].params["chirality"]),
              help="which so(2k) chirality, soEven only [default: last]")
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def series(family, m, n, k, p, order, route, chirality, fmt):
    """t-expansion of one dimension or superdimension series."""
    spec = _spec(family, {"m": m, "n": n, "k": k, "p": p, "chirality": chirality}, chirality="last")
    routes = FAMILIES[family].routes
    route = route or next(iter(routes))
    if route not in routes:
        raise click.UsageError(f"family {family!r} has no route {route!r}; choose from {', '.join(routes)}")
    out = routes[route](spec, order)
    _emit(
        fmt,
        json=lambda: {"spec": spec.to_json_dict(), "meta": {"route": route}, **out.to_json_dict()},
        csv=lambda: [("power", "coefficient"), *enumerate(out.coeffs)],
        text=lambda: [str(out)],
    )


@main.command()
@click.option("--case", type=click.Choice(list(CASES)), required=True)
@click.option("--m", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--p", type=int, default=None)
@click.option("--order", default=DEFAULT_ORDER, help="truncation order", **ORDER)
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def verify(case, m, n, k, p, order, fmt):
    """Compare both sides of one correspondence; exit 1 on mismatch."""
    try:
        report = verify_correspondence(case, k=k, p=p, n=n, m=m, order=order)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    div = report.first_divergence
    _emit(
        fmt,
        failed=not report.match,
        json=report.to_json_dict,
        csv=lambda: [("case", "order", "verdict", "first_divergence"),
                     (case, order, "match" if report.match else "mismatch", div)],
        text=lambda: [
            f"case {case} (order {order})",
            f"left : {report.left.spec.describe()} via {report.left.route}",
            f"       {report.left.series}",
            f"right: {report.right.spec.describe()} via {report.right.route}",
            f"       {report.right.series}",
            "verdict: match" if report.match else f"verdict: mismatch, first divergence at t^{div}",
        ],
    )


@main.command()
@click.option("--case", type=click.Choice(list(CASES) + ["all"]), default="all", show_default=True)
@click.option("--k-max", type=int, default=4, show_default=True)
@click.option("--p-max", type=int, default=4, show_default=True)
@click.option("--free-count", type=int, default=3, show_default=True, help="how many values of the free rank parameter")
@click.option("--order", default=12, help="truncation order", **ORDER)
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def sweep(case, k_max, p_max, free_count, order, fmt):
    """Run a correspondence over parameter ranges; exit 1 on any mismatch."""
    highest = {"k": k_max, "p": p_max}
    plan = []
    for c in list(CASES) if case == "all" else [case]:
        row = CASES[c]
        axes = {name: range(low, highest[name] + 1) for name, low in row.bounds.items()}
        if row.free:
            axes[row.free] = range(1, free_count + 1)
        combos = [(c, dict(zip(axes, values))) for values in itertools.product(*axes.values())]
        if not combos:
            raise click.UsageError(f"the parameter ranges give case {c!r} no combinations to check")
        plan += combos
    rows = []
    for c, params in plan:
        report = verify_correspondence(c, order=order, **params)
        rows.append((c, params, "match" if report.match else "mismatch", report.first_divergence))
    mismatches = sum(verdict == "mismatch" for _, _, verdict, _ in rows)

    def listed(params: dict) -> str:
        return " ".join(f"{name}={value}" for name, value in params.items())

    _emit(
        fmt,
        failed=mismatches > 0,
        json=lambda: {
            "order": order,
            "checked": len(rows),
            "mismatches": mismatches,
            "results": [{"case": c, "params": params, "verdict": verdict, "first_divergence": div}
                        for c, params, verdict, div in rows],
        },
        csv=lambda: [
            ("case", "params", "order", "verdict", "first_divergence"),
            *((c, listed(params), order, verdict, div) for c, params, verdict, div in rows),
        ],
        text=lambda: [
            *(f"{c} {listed(params)}: " + ("match" if verdict == "match" else f"MISMATCH at t^{div}")
              for c, params, verdict, div in rows),
            f"checked {len(rows)} combinations at order {order}: {mismatches} mismatch(es)",
        ],
    )


@main.command()
@click.option("--seed", type=int, default=0, show_default=True, help="seed for the randomized checks")
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def selftest(seed, fmt):
    """Recompute every built-in golden example; exit 1 on any failure."""
    # imported here, so no other command compiles or loads the goldens
    from .selftest import run_selftest

    results = run_selftest(seed=seed)
    passed = sum(r.ok for r in results)
    _emit(
        fmt,
        failed=passed < len(results),
        json=lambda: {
            "seed": seed,
            "passed": passed,
            "failed": len(results) - passed,
            "results": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
        },
        csv=lambda: [("name", "status", "detail"),
                     *((r.name, "ok" if r.ok else "fail", r.detail) for r in results)],
        text=lambda: [
            *(("ok   " if r.ok else "FAIL ") + r.name + (f" ({r.detail})" if r.detail else "")
              for r in results),
            f"{passed}/{len(results)} checks passed",
        ],
    )


if __name__ == "__main__":
    main()
