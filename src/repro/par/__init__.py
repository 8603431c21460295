"""``repro.par`` — home of :mod:`repro.par.surface`, the per-system
verification surface shared by ``python -m repro check``, the
static analyzer and the ``bench/`` deep-verify workload.
"""
