"""The package's public surface: every exported name, pinned."""

import extdisc

PUBLIC = [
    "BMethod",
    "BoxPair",
    "BudgetExceededError",
    "CHUNK",
    "CellDecomposition",
    "Certificate",
    "CurseConstants",
    "DiscrepancyResult",
    "DualityCheck",
    "GeneratorKind",
    "GeneratorSpec",
    "InternalConsistencyError",
    "InvalidInputError",
    "Method",
    "PointSet",
    "WeightKind",
    "WeightSet",
    "certificate_lower_bound",
    "classify_weights",
    "conjugate_exponent",
    "curse_base",
    "curse_constants",
    "duality_gap_mc",
    "equal_weights",
    "error_lower_bound",
    "extreme_l2_exact",
    "extreme_linf_exact",
    "extreme_linf_lower_mc",
    "extreme_lp_exact_even_p",
    "extreme_lp_mc",
    "generate",
    "gnewuch_linf_upper",
    "initial_error",
    "integral_ratio_max",
    "load_points",
    "local_discrepancy",
    "min_points_lower_bound",
    "norm_ratio_max",
    "nw10_l2_lower",
    "points_csv",
    "radical_inverse",
    "representer_value",
    "sample_box_pairs",
    "save_points",
    "spline_norm",
    "substream",
    "worst_case_1d",
]


def test_public_names_are_pinned():
    # a new public name is an API change; add it here on purpose or not at all
    assert sorted(extdisc.__all__) == PUBLIC


def test_every_public_name_resolves_once():
    assert len(set(extdisc.__all__)) == len(extdisc.__all__)
    for name in extdisc.__all__:
        assert getattr(extdisc, name) is not None
