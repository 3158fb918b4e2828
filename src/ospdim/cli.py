"""Command line interface.

Exit codes: 0 on success and on all-match verdicts, 1 when a verification
reports a mismatch, 2 for usage errors (click's default), including a sweep
whose ranges give nothing to check.  The default truncation order can be set
with the OSPDIM_ORDER environment variable.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import __version__
from .characters import (
    CASES,
    IrrepSpec,
    d21_sdim_t,
    osp1_dim_t,
    ospB_sdim_t,
    ospD_sdim_t,
    so_even_dim_t,
    so_odd_dim_t,
    sp_dim_t,
    spinor_sdim,
    spinor_tdim,
    verify_correspondence,
)
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


def _need(name: str, value: int | None) -> int:
    if value is None:
        raise click.UsageError(f"missing required option --{name}")
    return value


def _series_csv(series: TruncatedSeries) -> str:
    lines = ["power,coefficient"]
    lines += [f"{k},{c}" for k, c in enumerate(series.coeffs)]
    return "\n".join(lines)


@click.group()
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
    try:
        if family == "gl":
            n = _need("n", n)
            lam = _parse_partition(lam_text, "--lambda")
            spec = IrrepSpec("gl", n=n, lam=lam.parts)
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
            m = _need("m", m)
            n = _need("n", n)
            lam = _parse_partition(lam_text, "--lambda")
            spec = IrrepSpec("glsuper", m=m, n=n, lam=lam.parts)
            value = sdim_gl(m, n, lam)
            payload = {"spec": spec.to_json_dict(), "value": value}
            text = [str(value)]
            csv = ["family,m,n,lambda,value", f"glsuper,{m},{n},{spec.label},{value}"]
        else:
            m = _need("m", m)
            n = _need("n", n)
            spec = IrrepSpec("spinor", m=m, n=n)
            value = spinor_sdim(m, n)
            payload = {"spec": spec.to_json_dict(), "value": str(value)}
            text = [str(value)]
            csv = ["family,m,n,value", f"spinor,{m},{n},{value}"]
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "json":
        click.echo(json.dumps(payload))
    elif fmt == "csv":
        click.echo("\n".join(csv))
    else:
        click.echo("\n".join(text))


_SERIES_FAMILIES = ["osp1", "ospB", "ospD", "soOdd", "soEven", "sp", "d21", "spinor"]


@main.command()
@click.option("--family", type=click.Choice(_SERIES_FAMILIES), required=True)
@click.option("--m", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--p", type=int, default=None)
@click.option("--order", type=int, default=None, help=f"truncation order [default: OSPDIM_ORDER or {DEFAULT_ORDER}]")
@click.option("--route", type=click.Choice(["sum", "closed"]), default="sum", show_default=True, help="computation route for osp1")
@click.option("--chirality", type=click.Choice(["last", "next_to_last"]), default="last", show_default=True, help="which so(2k) chirality")
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def series(family, m, n, k, p, order, route, chirality, fmt):
    """t-expansion of one dimension or superdimension series."""
    order = _resolve_order(order)
    try:
        if family == "osp1":
            n = _need("n", n)
            p = _need("p", p)
            spec = IrrepSpec("osp1", n=n, p=p)
            out = osp1_dim_t(n, p, order, route=route)
            meta_route = route
        elif family == "ospB":
            m, n, p = _need("m", m), _need("n", n), _need("p", p)
            spec = IrrepSpec("ospB", m=m, n=n, p=p)
            out = ospB_sdim_t(m, n, p, order)
            meta_route = "branching"
        elif family == "ospD":
            m, n, p = _need("m", m), _need("n", n), _need("p", p)
            spec = IrrepSpec("ospD", m=m, n=n, p=p)
            out = ospD_sdim_t(m, n, p, order)
            meta_route = "branching"
        elif family == "soOdd":
            k, p = _need("k", k), _need("p", p)
            spec = IrrepSpec("soOdd", k=k, p=p)
            out = so_odd_dim_t(k, p, order)
            meta_route = "branching"
        elif family == "soEven":
            k, p = _need("k", k), _need("p", p)
            spec = IrrepSpec("soEven", k=k, p=p, chirality=chirality)
            out = so_even_dim_t(k, p, chirality, order)
            meta_route = "branching"
        elif family == "sp":
            k, p = _need("k", k), _need("p", p)
            spec = IrrepSpec("sp", k=k, p=p)
            out = sp_dim_t(k, p, order)
            meta_route = "branching"
        elif family == "d21":
            p = _need("p", p)
            spec = IrrepSpec("d21", p=p)
            out = d21_sdim_t(p, order)
            meta_route = "branching"
        else:
            m, n = _need("m", m), _need("n", n)
            spec = IrrepSpec("spinor", m=m, n=n)
            out = spinor_tdim(m, n, order)
            meta_route = "closed"
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "json":
        payload = {"spec": spec.to_json_dict(), "meta": {"route": meta_route}}
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
    cases = list(CASES) if case == "all" else [case]
    rows = []
    mismatches = 0
    for c in cases:
        if c == "d21-vs-so2":
            for p in range(1, p_max + 1):
                report = verify_correspondence(c, p=p, order=order)
                rows.append((c, {"p": p}, report))
                mismatches += not report.match
            continue
        k_lo = 2 if c == "ospD-vs-soEven" else 1
        free = "n" if c in ("ospB-vs-soOdd", "ospD-vs-soEven") else "m"
        for k in range(k_lo, k_max + 1):
            for p in range(p_max + 1):
                for v in range(1, free_count + 1):
                    report = verify_correspondence(c, k=k, p=p, order=order, **{free: v})
                    rows.append((c, {"k": k, "p": p, free: v}, report))
                    mismatches += not report.match
    if not rows:
        raise click.UsageError("the parameter ranges give no combinations to check")
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
