"""Paper-specific experiment definitions: Table I, Figures 4–6, calibration."""

from .calibration import DEFAULT_SCALE, PAPER_ANCHORS, Scale, default_power_model
from .figures import (
    PAPER_FRONTS,
    FigureComparison,
    compare_all,
    compare_front,
    figure_front,
)
from .table1 import (
    EXPLORERS,
    TABLE1_CONFIGS,
    AirdropCaseStudy,
    Table1Explorer,
    airdrop_parameter_space,
    make_explorer,
    multi_node_needs_rllib,
    paper_metrics,
    paper_rankers,
    table1_campaign,
)

__all__ = [
    "Scale",
    "DEFAULT_SCALE",
    "PAPER_ANCHORS",
    "default_power_model",
    "TABLE1_CONFIGS",
    "AirdropCaseStudy",
    "Table1Explorer",
    "EXPLORERS",
    "make_explorer",
    "airdrop_parameter_space",
    "multi_node_needs_rllib",
    "paper_metrics",
    "paper_rankers",
    "table1_campaign",
    "PAPER_FRONTS",
    "FigureComparison",
    "figure_front",
    "compare_front",
    "compare_all",
]
