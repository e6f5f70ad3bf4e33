"""Lifted Gabidulin subspace codes and list decoding in Pluecker coordinates."""

from .errors import (
    ChannelError,
    CodeError,
    DecodeError,
    DomainError,
    FieldError,
    GrassmannError,
    MatrixError,
)
from .gf import (
    ExtElement,
    ExtFieldCtx,
    FieldCtx,
    default_modulus,
    ext_field,
    frobenius,
    lin_independent_over_base,
    phi,
    phi_inv,
)
from .matgf import (
    MatGF,
    det,
    kernel_basis,
    minor,
    rank,
    rref,
    solve_affine,
)
from .gabidulin import (
    GabidulinCode,
    RankCodeword,
    Subspace,
    encode,
    enumerate_code,
    enumerate_grassmannian,
    gaussian_binomial,
    generator_matrix,
    lift,
    make_code,
    mrd_bound,
    rank_distance,
    subspace_distance,
)
from .pluecker import (
    LinearForm,
    PlueckerVector,
    QuadraticRelation,
    ball_equations,
    ball_forbidden_tuples,
    bruhat_leq,
    construction4,
    embed,
    equidistant_lift,
    normalize,
    phi_bar_columns,
    shuffle_relations,
    tau_count,
    tuple_rank,
    tuple_unrank,
)
from .listdec import (
    BlockCodeView,
    DecodeEntry,
    DecodeList,
    EquationSystem,
    build_block_code,
    decode_list,
    extended_parity,
    pluecker_entry_formula,
    system_report,
)
from .channel import ChannelConfig, corrupt, simulate_trials
from .params import SMALL_PARAMETER_SETS, ParamSet

__version__ = "0.1.0"
