"""orbitlab: exact desk-scale workbench for orbit equivalence of shift actions.

Subsystems:
    groups         finite groups/alphabets by multiplication table
    words          reduced words in free products, balls, transversals
    spaces         configurations, sampling, exact cylinder distributions
    actions        shift / co-induced / twisted / induced actions
    cocycles       1-cocycles with finite dependency windows
    constructions  the explicit builders (increment isomorphism, cylinder
                   compression, transported star actions, sections, ...)
    verify         independence & generation engine, verification reports
    cli            batch harness over config documents
"""

from .groups import (Alphabet, FiniteGroup, GroupTableError, cyclic, klein_four,
                     load_group_table, s3)
from .words import (BallNotFiniteError, Coset, GroupSpec, SpecMismatchError, Word,
                    ball, coset, cosets_ball, extension_sphere, free_group,
                    free_product, omega_transfer, r_map, sphere, transversal_words)
from .spaces import (BudgetExceededError, Configuration, CosetIndex, GroupIndex,
                     IntIndex, MissingCoordinateError, Space, derive_seed,
                     exact_distribution, sample)
from .verify import (FAIL, PASS, UNDETERMINED, UndeterminedError,
                     VerificationReport, WindowFunction)
from .actions import quotient_normalize

__all__ = [name for name in dir() if not name.startswith("_")]
