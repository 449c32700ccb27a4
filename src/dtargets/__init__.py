"""Exact combinatorics for degree-d planar multigraph targets: parsing and
validation, odd-cut checks, local pattern detection, region charging,
perfect-matching edge colouring, and switching moves.

The modules are the API: ``from dtargets import planar`` or
``from dtargets.planar import parse_dtarget``."""

from . import coloring, config, corpus, cuts, discharge, errors, planar, switching

__version__ = "0.1.0"
