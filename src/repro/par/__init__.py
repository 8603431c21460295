"""``repro.par`` — home of :mod:`repro.par.surface`, the per-system
verification surface shared by ``python -m repro check``, the bench
profiles and the static analyzer.
"""
