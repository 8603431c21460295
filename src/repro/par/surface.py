"""Kept for ``bench/``, which imports these from here; the surface is
:mod:`repro.surface`."""

from repro.surface import explore_automaton, mapping_specs

__all__ = ["explore_automaton", "mapping_specs"]
