"""Exact computations for classical dual pairs: tensor products,
branching rules, inductive-limit stabilization, and a symbolic
Bargmann-Fock module."""

__version__ = "0.1.1"

from . import errors
from .branching import (
    ReciprocityReport,
    dual_side_multiplicity,
    reciprocity_check,
    restrict_gl_to_so,
    restrict_gl_to_sp,
)
from .characters import (
    LaurentPoly,
    dim,
    greedy_decompose,
    schur_laurent_on_so_torus,
    schur_poly,
    schur_product_decompose,
    so_character,
)
from .fock import (
    FockPoly,
    FockShape,
    GaussRat,
    WeylOp,
    check_covariance,
    harmonic_project_rank1,
    hwv,
    pairing,
    parse_poly,
    render_poly,
    sl2_generators,
    sp2n_generators,
    supq_laplacians,
    translate,
    verify_sl2,
    verify_sp2n,
    verify_supq,
    w_var,
    weyl_commutator,
    z_var,
)
from .lr import (
    Decomposition,
    contragredient,
    lr_coefficient,
    tensor_mixed,
    tensor_multi,
    tensor_pair,
)
from .signatures import (
    GroupFamily,
    canonicalize,
    iter_partitions,
    pad,
    parse,
    render,
    shift_mixed,
    weight,
)
from .stable_limits import (
    StableResult,
    identity_multiplicity,
    stable_branch,
    stable_tensor,
)
