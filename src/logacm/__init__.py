"""Exact cohomology tables and aCM classification for logarithmic bundles
of hypersurface arrangements on a fixed catalog of varieties."""

__version__ = "0.1.0"

from .catalog import abelian_surface, blowup_p2, hirzebruch, projective_space, quadric_surface, surface_in_p3
from .classify import (
    DeficiencyTable,
    Verdict,
    deficiency_concentrated_at_zero,
    deficiency_table,
    is_acm,
    is_tacm,
    necessary_conditions,
    one_degree_buchsbaum,
    search,
)
from .exactseq import Evaluator, cm_regularity_certify, default_evaluator, vanishing_window
from .intervals import Iv, iv
from .linebundles import (
    cohom_bott,
    cohom_ci,
    cohom_line_abelian,
    cohom_line_blowup,
    cohom_line_curve,
    cohom_line_hirzebruch,
    cohom_line_quadric,
    line_cohom,
)
from .logbundles import (
    cotangent_tangent_pair,
    dk_split_model,
    ledger_checks,
    log_pair,
    steiner_model,
)
from .varieties import (
    Arrangement,
    VarietyModel,
    arrangement,
    component_from_class,
    component_from_degree,
    hyperplane_arrangement,
    rational_classes_on_Fe,
)
