"""Small shared utilities: deterministic helpers, formatting, timing."""

from repro.utils.textgrid import ascii_table, ascii_barchart, format_si
from repro.utils.misc import (
    prod,
    is_power_of_two,
    ceil_div,
    pairwise_disjoint,
)

__all__ = [
    "ascii_table",
    "ascii_barchart",
    "format_si",
    "prod",
    "is_power_of_two",
    "ceil_div",
    "pairwise_disjoint",
]
