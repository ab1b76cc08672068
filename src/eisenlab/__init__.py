"""Exact verification laboratory for products of Eisenstein series on
principal congruence subgroups: symbolic rational-function kernels,
lattice hull chains, cyclotomic q-expansions, and an exact certifier for
relations that hold modulo the Eisenstein subspace."""
from .cyclotomic import (
    Cyclotomic,
    Rational,
    cyclo_embed,
    cyclo_invert,
    cyclo_reduce,
)
from .ratfunc import (
    MultiPoly,
    RatFunc,
    UnknownIdentity,
    ZeroDenominator,
    check_kernel,
    k33_identity,
)
from .hull import (
    HullChain,
    NonCoprimeShear,
    NotConsecutive,
    hull_chain,
    sublattice_points,
    verify_pair_bijection,
)
from .eisenstein import (
    EisIndex,
    InvalidIndex,
    NotDivisible,
    QSeries,
    bernoulli,
    sturm_truncation,
)
from .quasiforms import (
    DepthOverflow,
    EisBasis,
    QuasiForm,
    SpanSolution,
    certify_orthogonal,
    check_s_transform,
    delta,
    eis_basis,
    eis_series,
    eval_at,
    peel,
    quasi_mul,
    span_solve,
    theta,
)
from .verifiers import (
    INCONCLUSIVE,
    REFUTED,
    VERIFIED,
    LParams,
    TorsionPoint,
    VerificationReport,
    build_L,
    canonical_sum,
    torsion_translates,
    verify_hecke_trace,
    verify_prop21,
    verify_three_term_w2,
    verify_two_term,
)

__all__ = [name for name in dir() if not name.startswith("_")]
