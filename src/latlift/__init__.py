"""latlift: finite multiplicative lattices, ideal systems, and wire lifting."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .lattice import (
    CARRIER_CAP,
    ElementFlags,
    FiniteLattice,
    classify_element,
    enumerate_lattice_classes,
    enumerate_small_lattices,
    is_domain,
    lattice_from_dict,
    lattice_to_dict,
    load_lattice,
    verify_lattice,
)
from .lifting import (
    LatticeWork,
    LiftResult,
    SweepReport,
    WireError,
    WireReport,
    analyze_wire,
    check_finitary_embedding,
    check_liftability,
    check_m_wire_ideal_equivalence,
    enumerate_wires,
    lift,
    sweep_lattice,
)
from .monoid import (
    POWERSET_CAP,
    ClosureMap,
    FiniteMonoid,
    IdealLattice,
    build_ideal_lattice,
    subset_product,
    verify_finitary,
    verify_ideal_system,
    verify_weak_ideal_system,
)
from .natquad import (
    DivisionClosureReport,
    QuadOrder,
    SGenReport,
    division_closure_check,
    is_inert,
    is_norm,
    nat_residual,
    norm_image,
    norm_witness,
    reduced_forms,
    s_wire_check,
)
from .verdicts import LoadError, TheoremViolation, Verdict, Violation

# The public names are the ones imported above; submodules bound as
# attributes by those imports are not exported.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
