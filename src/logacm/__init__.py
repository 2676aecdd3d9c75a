"""Exact cohomology tables and aCM classification for logarithmic bundles
of hypersurface arrangements on a fixed catalog of varieties."""

__version__ = "0.1.0"

from .classify import (
    DeficiencyTable,
    Verdict,
    acm_in_degree0,
    deficiency_concentrated_at_zero,
    deficiency_table,
    f0_split_acm_oracle,
    is_acm,
    is_tacm,
    necessary_conditions,
    one_degree_buchsbaum,
    search,
    tacm_in_degree0,
    trivial_tacm_hirzebruch,
    weakly_acm_in_degree0,
    weakly_tacm_in_degree0,
)
from .exactseq import (
    Evaluator,
    cm_regularity_certify,
    cohom,
    default_evaluator,
    serre_dual_pairs,
    vanishing_window,
)
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
    quadric_ruling_splitting,
    steiner_model,
)
from .varieties import (
    Arrangement,
    VarietyModel,
    abelian_surface,
    arrangement,
    blowup_p2,
    component_from_class,
    component_from_degree,
    hirzebruch,
    hyperplane_arrangement,
    projective_space,
    quadric_surface,
    rational_classes_on_Fe,
    surface_in_p3,
)
