"""Verification and exploration toolkit for (C4, theta, prism, even-wheel)-free graphs."""

from .detectors import (
    Certificate,
    Verdict,
    WheelClass,
    classify_against_hole,
    clique_number,
    find_even_wheel,
    find_hole,
    find_prism,
    find_theta,
    has_biclique,
    has_clique,
    in_class_e,
    in_class_et,
    is_chordal,
    is_d_substantial,
    validate_certificate,
)
from .enumeration import canonical_cert, are_isomorphic, enumerate_graphs
from .finders import extract_induced_from_blurry, find_strong_block
from .graphs import (
    SimpleGraph,
    parse_edgelist,
    parse_graph6,
    write_edgelist,
    write_graph6,
)
from .ktrees import (
    KTree,
    cone,
    contains_induced,
    embed_in_ktree,
    gen_tdr,
    ktree_quotient,
    recognize_ktree,
    validate_ktree,
)
from .minors import check_thm31, check_thm32, eligible_pairs, triangle_minor
from .pipeline import pipeline_grow
from .predicates import (
    Alignment,
    BlurryWitness,
    Kaleidoscope,
    Palanquin,
    StrongBlockWitness,
    verify_alignment,
    verify_blurry,
    verify_kaleidoscope,
    verify_mirrored,
    verify_palanquin,
    verify_strong_block,
    verify_witness,
)
from .sweeps import (
    SweepReport,
    sweep_c4_necessity,
    sweep_embed,
    sweep_even_hole_subset_E,
    sweep_obs51,
    sweep_thm31,
    sweep_thm32,
)

__version__ = "0.1.0"
