"""Command line interface.

The choices of `series --family`, `--route` and `--chirality`, `verify
--case` and `sweep --case`, the parameters each family or case takes and the
ranges a sweep runs over all come from the FAMILIES and CASES tables in
`characters`, and `verify_correspondence` alone checks a case's parameters.
An option the chosen family or case does not take is a usage error: a
`--route` the family lacks, and `--chirality` for any family but soEven.
`--route` defaults to the family's first route, `--chirality` to last.

Exit codes:

0  success, and an all-match verdict
1  a verification reports a mismatch, and nothing else
2  usage error (click's default), including a sweep in which some case
   has no combination to check
3  internal error: any other uncaught exception, reported as one
   "internal error: ..." line on stderr

Called with standalone_mode=False, as a library caller or test harness does,
the group lets every exception propagate unchanged.  The default truncation
order can be set with the OSPDIM_ORDER environment variable.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import click

from . import __version__
from .characters import CASES, FAMILIES, IrrepSpec, spinor_sdim, verify_correspondence
from .partitions import Partition
from .schur import dim_gl_frobenius, dim_gl_hook, dim_gl_weyl, sdim_gl
from .series import DEFAULT_ORDER, TruncatedSeries
from .selftest import run_selftest

FORMATS = click.Choice(["text", "json", "csv"])


def _resolve_order(order: int | None, default: int = DEFAULT_ORDER) -> int:
    if order is not None:
        if order < 0:
            raise click.UsageError("--order must be non-negative")
        return order
    env = os.environ.get("OSPDIM_ORDER")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise click.UsageError(f"OSPDIM_ORDER must be an integer, got {env!r}")
        if value < 0:
            raise click.UsageError("OSPDIM_ORDER must be non-negative")
        return value
    return default


def _parse_partition(text: str | None, flag: str) -> Partition:
    if text is None or text.strip() in ("", "0"):
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


def _series_csv(series: TruncatedSeries) -> str:
    lines = ["power,coefficient"]
    lines += [f"{k},{c}" for k, c in enumerate(series.coeffs)]
    return "\n".join(lines)


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
@click.option("--family", type=click.Choice(["gl", "glsuper", "spinor"]), required=True)
@click.option("--m", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--lambda", "lam_text", default=None, help="partition as comma-separated parts")
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def dim(family, m, n, lam_text, fmt):
    """Integer dimension or superdimension of a single irrep."""
    lam = _parse_partition(lam_text, "--lambda")
    spec = _spec(family, {"m": m, "n": n, "lam": None if lam_text is None else lam.parts}, lam=())
    if family == "gl":
        weyl = dim_gl_weyl(n, lam)
        hook = dim_gl_hook(n, lam)
        frob = dim_gl_frobenius(n, lam.frobenius())
        agree = weyl == hook == frob
        payload = {
            "spec": spec.to_json_dict(),
            "value": weyl,
            "weyl": weyl,
            "hook": hook,
            "frobenius": frob,
            "agreement": agree,
        }
        text = [str(weyl), f"weyl=hook=frobenius: {'true' if agree else 'false'}"]
        csv = [
            "family,n,lambda,value,agreement",
            f"gl,{n},{spec.label},{weyl},{str(agree).lower()}",
        ]
    elif family == "glsuper":
        value = sdim_gl(m, n, lam)
        payload = {"spec": spec.to_json_dict(), "value": value}
        text = [str(value)]
        csv = ["family,m,n,lambda,value", f"glsuper,{m},{n},{spec.label},{value}"]
    else:
        value = spinor_sdim(m, n)
        payload = {"spec": spec.to_json_dict(), "value": str(value)}
        text = [str(value)]
        csv = ["family,m,n,value", f"spinor,{m},{n},{value}"]
    if fmt == "json":
        click.echo(json.dumps(payload))
    elif fmt == "csv":
        click.echo("\n".join(csv))
    else:
        click.echo("\n".join(text))


@main.command()
@click.option("--family", type=click.Choice([f for f, row in FAMILIES.items() if row.routes]), required=True)
@click.option("--m", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--p", type=int, default=None)
@click.option("--order", type=int, default=None, help=f"truncation order [default: OSPDIM_ORDER or {DEFAULT_ORDER}]")
@click.option("--route", type=click.Choice(list(dict.fromkeys(r for f in FAMILIES.values() for r in f.routes))),
              help="computation route [default: the family's first]")
@click.option("--chirality", type=click.Choice(FAMILIES["soEven"].params["chirality"]),
              help="which so(2k) chirality, soEven only [default: last]")
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def series(family, m, n, k, p, order, route, chirality, fmt):
    """t-expansion of one dimension or superdimension series."""
    order = _resolve_order(order)
    spec = _spec(family, {"m": m, "n": n, "k": k, "p": p, "chirality": chirality}, chirality="last")
    routes = FAMILIES[family].routes
    route = route or next(iter(routes))
    if route not in routes:
        raise click.UsageError(f"family {family!r} has no route {route!r}; choose from {', '.join(routes)}")
    out = routes[route](spec, order)
    if fmt == "json":
        payload = {"spec": spec.to_json_dict(), "meta": {"route": route}}
        payload.update(out.to_json_dict())
        click.echo(json.dumps(payload))
    elif fmt == "csv":
        click.echo(_series_csv(out))
    else:
        click.echo(str(out))


@main.command()
@click.option("--case", type=click.Choice(list(CASES)), required=True)
@click.option("--m", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--p", type=int, default=None)
@click.option("--order", type=int, default=None)
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def verify(case, m, n, k, p, order, fmt):
    """Compare both sides of one correspondence; exit 1 on mismatch."""
    order = _resolve_order(order)
    try:
        report = verify_correspondence(case, k=k, p=p, n=n, m=m, order=order)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "json":
        click.echo(json.dumps(report.to_json_dict()))
    elif fmt == "csv":
        click.echo("case,order,verdict,first_divergence")
        div = "" if report.first_divergence is None else report.first_divergence
        verdict = "match" if report.match else "mismatch"
        click.echo(f"{case},{order},{verdict},{div}")
    else:
        click.echo(f"case {case} (order {order})")
        click.echo(f"left : {report.left.spec.describe()} via {report.left.route}")
        click.echo(f"       {report.left.series}")
        click.echo(f"right: {report.right.spec.describe()} via {report.right.route}")
        click.echo(f"       {report.right.series}")
        if report.match:
            click.echo("verdict: match")
        else:
            click.echo(f"verdict: mismatch, first divergence at t^{report.first_divergence}")
    if not report.match:
        sys.exit(1)


@main.command()
@click.option("--case", type=click.Choice(list(CASES) + ["all"]), default="all", show_default=True)
@click.option("--k-max", type=int, default=4, show_default=True)
@click.option("--p-max", type=int, default=4, show_default=True)
@click.option("--free-count", type=int, default=3, show_default=True, help="how many values of the free rank parameter")
@click.option("--order", type=int, default=None, help="truncation order [default: OSPDIM_ORDER or 12]")
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def sweep(case, k_max, p_max, free_count, order, fmt):
    """Run a correspondence over parameter ranges; exit 1 on any mismatch."""
    order = _resolve_order(order, default=12)
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
    rows = [(c, params, verify_correspondence(c, order=order, **params)) for c, params in plan]
    mismatches = sum(not r.match for _, _, r in rows)
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "order": order,
                    "checked": len(rows),
                    "mismatches": mismatches,
                    "results": [
                        {"case": c, "params": params, "verdict": "match" if r.match else "mismatch",
                         "first_divergence": r.first_divergence}
                        for c, params, r in rows
                    ],
                }
            )
        )
    elif fmt == "csv":
        click.echo("case,params,order,verdict,first_divergence")
        for c, params, r in rows:
            ps = " ".join(f"{k}={v}" for k, v in params.items())
            div = "" if r.first_divergence is None else r.first_divergence
            click.echo(f"{c},{ps},{order},{'match' if r.match else 'mismatch'},{div}")
    else:
        for c, params, r in rows:
            ps = " ".join(f"{k}={v}" for k, v in params.items())
            verdict = "match" if r.match else f"MISMATCH at t^{r.first_divergence}"
            click.echo(f"{c} {ps}: {verdict}")
        click.echo(f"checked {len(rows)} combinations at order {order}: {mismatches} mismatch(es)")
    if mismatches:
        sys.exit(1)


@main.command()
@click.option("--seed", type=int, default=0, show_default=True, help="seed for the randomized checks")
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def selftest(seed, fmt):
    """Recompute every built-in golden example; exit 1 on any failure."""
    results = run_selftest(seed=seed)
    failures = [r for r in results if not r.ok]
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "seed": seed,
                    "passed": len(results) - len(failures),
                    "failed": len(failures),
                    "results": [
                        {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
                    ],
                }
            )
        )
    elif fmt == "csv":
        click.echo("name,status,detail")
        for r in results:
            click.echo(f"{r.name},{'ok' if r.ok else 'fail'},{r.detail}")
    else:
        for r in results:
            mark = "ok  " if r.ok else "FAIL"
            suffix = f" ({r.detail})" if r.detail else ""
            click.echo(f"{mark} {r.name}{suffix}")
        click.echo(f"{len(results) - len(failures)}/{len(results)} checks passed")
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
