"""Draw-and-delete urn chains over finite alphabets, in two presentations.

The kernel side builds exact substochastic matrices: equalisers of the
symmetry action on tuple spaces, the uniform remove-one urn step, multinomial
urn laws, and seeded Monte Carlo for exchangeable sequences.  The
coherence-space side builds the same chain in delta coordinates together
with the truncated exponential, promotions, and a totality test.  The
`chains` module ties both to one generic construction and verifies every
square exactly; `moments` solves the inverse problem of representing a total
element as a mixture of promotions via a grid linear program.
"""

from ._linalg import compose
from .multiset import (
    Alphabet,
    Multiset,
    difference,
    enumerate_bounded_multisets,
    enumerate_multisets,
    multinomial,
    multiset_of,
)
from .stoch import (
    AtomicMeasure,
    FinKernel,
    ProbVector,
    coeq_kernel,
    dd_kernel,
    empirical_law,
    eq_kernel,
    multinomial_law,
    simulate_exchangeable,
    symmetry_kernel,
    tensor,
    verify_equalises,
)
from .pcoh import (
    BangElement,
    Membership,
    Pcs,
    PcsMatrix,
    PcsVector,
    bang_pcs,
    biorthogonal_membership,
    bool_pcs,
    dd_inclusion,
    dd_restriction,
    dual_membership,
    eq_delta,
    ground_pcs,
    multinomial_embedding,
    multiset_pcs,
    pairing,
    promotion,
    restrict_to_depth,
    tensor_pcs,
    with_unit_pcs,
)
from .chains import (
    Cone,
    CopointedObject,
    DDChain,
    build_dd_chain,
    expand_dd_cone,
    factor_delete_cone,
    lift_copointed_morphism,
    multinomial_cone,
    multinomial_diagonal,
    pcoh_free_copointed,
    pcoh_ground_copointed,
    stoch_copointed,
)
from .moments import (
    MomentTable,
    bang_from_moments,
    check_totality,
    cone_from_total_element,
    damp,
    embed_mixing_measure,
    moment_sequence,
    recover_measure,
    verify_embedding_squares,
)
from .optim import LinearProgram, LpSolution, feasibility_minmax, solve

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
