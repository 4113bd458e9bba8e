import ndrank
from ndrank import errors


def test_public_names_are_pinned():
    # a name that leaves or joins the star export shows here
    assert sorted(ndrank.__all__) == [
        "CycleError", "DegenerateCone", "FitConfig", "FitReport", "HypothesisViolated",
        "MembershipCertificate", "NDFactorization", "NDRankError", "NonFiniteInput",
        "NonNegativityViolated", "NonPositiveEntry", "NotSimplicial", "ParseError", "Poset",
        "ProbabilityEstimate", "Rank2Result", "RankBounds", "ShapeMismatch", "TooLarge",
        "TriFactorCheck", "UncertifiedSolution", "UnknownLabel", "UnsupportedLossRank", "Violation",
        "apply_kronecker", "canonical_inequalities", "chain", "collider_to_top", "cone",
        "connected_upsets", "count_antichains", "datasets", "default_tol", "double_description",
        "errors", "factor", "finite_rank_hrep", "finite_rank_vrep", "format_normal",
        "format_poset_text", "from_relation", "hals", "has_collider", "init_als_project",
        "is_monotone", "is_simplicial", "isotonic", "linear_extensions", "membership_finite_rank",
        "mobius_inverse_matrix", "mobius_matrix", "order_cone_vrep", "outer", "parse_poset_text",
        "pava_chain", "poset", "product", "project", "rank1_exponential", "rank1_gaussian",
        "rank1_multinomial", "rank1_poisson", "rank2_matrix_exact", "rank_bounds", "read_poset",
        "read_tensor", "sample_finite_rank_probability", "tensor", "tensor_from_json",
        "tensor_to_json", "tri_factorization_verify", "trivial", "write_poset", "write_tensor",
    ]
    assert not hasattr(errors, "IndexOutOfRange")
