"""rootprimes: exact lattice arithmetic for root data.

Decides, for a reduced root datum and a prime p, whether p is bad, good,
very good, or pretty good, which settles whether all scheme-theoretic
centralizers in the corresponding reductive group are smooth; when they are
not, it constructs explicit lattice-torsion certificates.
"""

from .certificates import Certificate, build_certificate, verify_certificate
from .errors import (
    BadPrimeError,
    ClassificationGapError,
    ContainmentError,
    NonTypeAError,
    NotARootSystemError,
    RootPrimesError,
    TooLargeError,
)
from .intlin import (
    FinAbGroup,
    IntMatrix,
    RowLattice,
    SmithForm,
    hermite_normal_form,
    is_prime,
    p_torsion_free,
    prime_factors,
    primes_upto,
    quotient_group,
    relative_divisors,
    row_basis,
    smith_normal_form,
    snf_divisors,
)
from .isogeny import (
    Isogeny,
    adjoint_to_simply_connected,
    cokernel,
    compose,
    identity_isogeny,
    separable_at,
    transfer_pretty_good,
    validate_isogeny,
)
from .oracles import (
    good_via_torsion,
    pretty_good_bruteforce,
    pretty_good_full_sweep,
    very_good_via_torsion,
)
from .primes import (
    PrimeReport,
    TorsionBound,
    bad_primes,
    center_smooth,
    dual_center_smooth,
    failing_prime_bound,
    good,
    pretty_good,
    report,
    very_good,
)
from .rootdatum import (
    CartanType,
    Component,
    RootDatum,
    adjoint,
    cartan_matrix,
    cartan_type,
    components,
    direct_sum,
    dual,
    general_linear,
    is_semisimple,
    preset,
    same_datum,
    simple_system,
    simply_connected,
    torus,
    validate,
    weight_lattice_quotients,
    x_mod_root_lattice,
    y_mod_coroot_lattice,
)
from .standardness import (
    Decomposition,
    GluingCheck,
    check_gluing,
    classify,
    decompose,
    is_essentially_standard,
    smoothness_verdict,
)
from .subsystems import (
    HighestRoot,
    RootSubset,
    WeylElement,
    coxeter_closed_form_type_a,
    coxeter_element_type_a,
    coxeter_fixed_torsion,
    cross_out_for_prime,
    cross_out_node,
    highest_roots,
    reflection,
    span_closure,
)

__version__ = "0.1.0"
