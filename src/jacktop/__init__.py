"""Exact combinatorics of the top-degree part of Jack characters.

The package computes the g/R expansion of the
top-degree part of one-row Jack characters by enumerating transitive
permutation pairs (labeled bicolored maps) and their expander weights, and
verifies every identity against an independent Jack-polynomial oracle at
desk scale.  All arithmetic is exact.
"""

from .exact import AlphaPoly, GammaPoly, KLPoly, Laurent, RatFunc
from .young import parse_partition

__all__ = ["AlphaPoly", "GammaPoly", "KLPoly", "Laurent", "RatFunc",
           "parse_partition"]

__version__ = "0.1.0"
