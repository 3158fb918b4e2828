"""Per-layer tracing of the ospdim package from outside it.

`Tracer.install()` replaces public names of the package with timing
wrappers, at the place where each caller looks the name up: `characters`
imports the enumerators and `dim_gl_weyl` by name, `cli` imports the family
builders and `verify_correspondence` by name, and `schur` calls its own
module globals.  Enumerators are wrapped only where another layer calls them,
so `partitions.enum` counts what `characters` and `schur` consume, not the
enumerators' calls to each other.

Every wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it directly contains.  Spans are aggregated per name
as they close instead of being stored one by one, so the traced run's memory
stays flat however many calls a workload makes.  The patches last for the
life of the process; the benchmark traces only in a worker process of its
own.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

from ospdim import characters, cli, partitions, schur, series

ENUMERATORS = {
    characters: ("enum_partitions", "enum_B", "enum_D", "enum_offset_forms"),
    schur: ("subpartitions",),
}

BUILDERS = (
    "osp1_numerator",
    "osp1_dim_t",
    "ospB_sdim_t",
    "ospD_sdim_t",
    "so_odd_dim_t",
    "so_even_dim_t",
    "sp_dim_t",
    "spinor_tdim",
    "d21_sdim_t",
    "d21_sdim_closed",
    "verify_correspondence",
    "cummins_king_check",
)

SPANS = (
    "partitions.enum",
    "partitions.conjugate",
    "schur.dim_gl_weyl",
    "schur.dim_gl_frobenius",
    "schur.sdim_gl",
    "schur.lr_expansion",
    "schur.schur_eval",
    "schur.super_schur_eval",
    "series.mul",
    "series.div",
    "series.pow",
    "series.init",
    *(f"characters.{name}" for name in BUILDERS),
    "cli.main",
)


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # child time of each open span
        self._dims_seen: set = set()
        self._lr_seen: set = set()

    # -- spans -------------------------------------------------------------

    def _close(self, name: str, start: float) -> None:
        elapsed = perf_counter() - start
        self.self_s[name] += elapsed - self._open.pop()
        if self._open:
            self._open[-1] += elapsed

    def wrap(self, name: str, fn, on_call=None):
        """A function that runs fn inside a span; on_call(*args) counts
        work from the arguments before the span opens."""

        def traced(*args, **kwargs):
            self.calls[name] += 1
            if on_call is not None:
                on_call(*args)
            self._open.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start)

        return traced

    def wrap_generator(self, name: str, fn):
        """A generator function whose every step of fn's iterator is a
        span, so the consumer's work between steps is not counted."""

        def traced(*args, **kwargs):
            self.calls[name] += 1
            it = iter(fn(*args, **kwargs))
            while True:
                self._open.append(0.0)
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, start)
                self.counts[f"{name}.yielded"] += 1
                yield item

        return traced

    # -- work counted from arguments ----------------------------------------

    def _dim_args(self, n, lam) -> None:
        self._dims_seen.add((n, lam.parts))

    def _lr_args(self, outer, inner) -> None:
        key = (outer.parts, inner.parts)
        if key in self._lr_seen:
            self.counts["schur.lr_cache.hits"] += 1
        else:
            self._lr_seen.add(key)

    def _mul_args(self, left, right) -> None:
        if isinstance(right, series.TruncatedSeries):
            n = min(left.order, right.order)
            self.counts["series.mul.coeff_ops"] += (n + 1) * (n + 2) // 2

    def _div_args(self, num, den) -> None:
        # the long division loops over divisor terms 1..k for every k <= n;
        # term j is visited n - j + 1 times and does work only when nonzero
        if isinstance(den, series.TruncatedSeries):
            n = min(num.order, den.order)
            self.counts["series.div.coeff_ops"] += n * (n + 1) // 2
            self.counts["series.div.useful_ops"] += sum(
                n - j + 1 for j in range(1, n + 1) if den.coeffs[j]
            )

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        enum = self.wrap_generator
        for module, names in ENUMERATORS.items():
            for name in names:
                setattr(module, name, enum("partitions.enum", getattr(module, name)))
        partitions.Partition.conjugate = self.wrap(
            "partitions.conjugate", partitions.Partition.conjugate
        )

        weyl = self.wrap("schur.dim_gl_weyl", schur.dim_gl_weyl, self._dim_args)
        schur.dim_gl_weyl = characters.dim_gl_weyl = weyl
        characters.dim_gl_frobenius = self.wrap(
            "schur.dim_gl_frobenius", schur.dim_gl_frobenius
        )
        schur.sdim_gl = characters.sdim_gl = self.wrap("schur.sdim_gl", schur.sdim_gl)
        schur.lr_expansion = self.wrap(
            "schur.lr_expansion", schur.lr_expansion, self._lr_args
        )
        schur.schur_eval = self.wrap("schur.schur_eval", schur.schur_eval)
        schur.super_schur_eval = characters.super_schur_eval = self.wrap(
            "schur.super_schur_eval", schur.super_schur_eval
        )

        ts = series.TruncatedSeries
        ts.__mul__ = ts.__rmul__ = self.wrap("series.mul", ts.__mul__, self._mul_args)
        ts.__truediv__ = self.wrap("series.div", ts.__truediv__, self._div_args)
        ts.__pow__ = self.wrap("series.pow", ts.__pow__)
        ts.__init__ = self.wrap("series.init", ts.__init__)

        for name in BUILDERS:
            traced = self.wrap(f"characters.{name}", getattr(characters, name))
            setattr(characters, name, traced)
            if hasattr(cli, name):
                setattr(cli, name, traced)
        cli.main.main = self.wrap("cli.main", cli.main.main)

    # -- results -----------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """Work counts and ratios; they repeat exactly for a fixed job."""
        out: dict[str, float] = {f"{name}.calls": self.calls[name] for name in SPANS}
        out["partitions.enum.yielded"] = self.counts["partitions.enum.yielded"]
        out["schur.dim_gl_weyl.distinct_ratio"] = _ratio(
            len(self._dims_seen), self.calls["schur.dim_gl_weyl"]
        )
        out["schur.lr_cache.hit_ratio"] = _ratio(
            self.counts["schur.lr_cache.hits"], self.calls["schur.lr_expansion"]
        )
        out["series.mul.coeff_ops"] = self.counts["series.mul.coeff_ops"]
        out["series.div.coeff_ops"] = self.counts["series.div.coeff_ops"]
        out["series.div.useful_ratio"] = _ratio(
            self.counts["series.div.useful_ops"], self.counts["series.div.coeff_ops"]
        )
        return out

    def self_times(self) -> dict[str, float]:
        return {f"{name}.self_s": self.self_s[name] for name in SPANS}
