"""Exact t-dimension and superdimension series for spinor and self-dual
tensor representations of orthosymplectic Lie superalgebras, with
correspondence checks against classical orthogonal and symplectic groups."""

__version__ = "0.1.0"

from .partitions import (
    FrobeniusForm,
    Partition,
    enum_B,
    enum_D,
    enum_offset_forms,
    enum_partitions,
    enum_rectangle,
    subpartitions,
)
from .schur import (
    dim_gl_frobenius,
    dim_gl_hook,
    dim_gl_weyl,
    lr_coefficient,
    lr_expansion,
    schur_eval,
    sdim_gl,
    super_schur_eval,
)
from .series import DEFAULT_ORDER, TruncatedSeries, geometric, polynomial
from .characters import (
    CASES,
    CorrespondenceReport,
    CumminsKingReport,
    IrrepSpec,
    Side,
    cummins_king_check,
    d21_sdim_closed,
    d21_sdim_t,
    osp1_dim_t,
    osp1_numerator,
    ospB_sdim_t,
    ospD_sdim_t,
    so_even_dim_t,
    so_odd_dim_t,
    sp_dim_t,
    spinor_sdim,
    spinor_tdim,
    verify_correspondence,
)
